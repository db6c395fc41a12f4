(* Tests for the msp_lint static-analysis pass: every rule fires on a
   seeded-bad fixture, clean code stays clean, suppression comments are
   honoured, and path classification matches the repo layout. *)

module Rules = Msp_lint_core.Lint_rules
module Driver = Msp_lint_core.Lint_driver
module Output = Msp_lint_core.Lint_output

let fixture name = Filename.concat "lint_fixtures" name

let lint ?(kind = Rules.Library) name =
  match Driver.lint_file ~kind (fixture name) with
  | Ok findings -> findings
  | Error e -> Alcotest.failf "fixture %s failed to parse: %s" name e

let rules_fired findings =
  List.sort_uniq String.compare
    (List.map (fun (f : Rules.finding) -> f.rule) findings)

let check_only_rule name rule count =
  let findings = lint name in
  Alcotest.(check (list string))
    (name ^ " rules") [ rule ] (rules_fired findings);
  Alcotest.(check int) (name ^ " count") count (List.length findings)

(* --- One fixture per rule ------------------------------------------- *)

let rule_determinism_random () =
  check_only_rule "bad_random.ml" "determinism-random" 4

let rule_float_poly_eq () = check_only_rule "bad_float_eq.ml" "float-poly-eq" 5

let rule_obj_magic () = check_only_rule "bad_obj_magic.ml" "obj-magic" 1

let rule_lib_exit () = check_only_rule "bad_exit.ml" "lib-exit" 2

let rule_io_stdout () = check_only_rule "bad_printf.ml" "io-stdout" 3

let rule_nan_source () = check_only_rule "bad_nan_source.ml" "nan-source" 2

let rule_guarded_by () = check_only_rule "bad_unguarded.ml" "guarded-by" 3

let rule_borrow_write () =
  check_only_rule "bad_borrow_write.ml" "borrow-escape" 4

let rule_borrow_store () =
  check_only_rule "bad_borrow_store.ml" "borrow-escape" 2

let rule_borrow_bigarray () =
  check_only_rule "bad_borrow_bigarray.ml" "borrow-escape" 6

let rule_borrow_fleet () =
  check_only_rule "bad_borrow_fleet.ml" "borrow-escape" 5

let rule_determinism_clock () =
  check_only_rule "bad_clock.ml" "determinism-clock" 2

let rule_determinism_env () = check_only_rule "bad_env.ml" "determinism-env" 2

let rule_hashtbl_order () =
  check_only_rule "bad_hashtbl_order.ml" "determinism-hashtbl-order" 2

let rule_boxed_float_closure () =
  check_only_rule "bad_boxed_float.ml" "boxed-float-closure" 2;
  Alcotest.(check (list string)) "loop forms and owned refs are clean" []
    (rules_fired (lint "good_boxed_float.ml"));
  Alcotest.(check (list string)) "silent without the opt-in" []
    (rules_fired (lint "boxed_float_no_optin.ml"))

let rule_missing_mli () =
  let files = Driver.walk [ fixture "tree" ] in
  let findings = Driver.missing_mli files in
  match findings with
  | [ f ] ->
    Alcotest.(check string) "rule" "missing-mli" f.Rules.rule;
    Alcotest.(check bool) "names the bad module" true
      (Filename.basename f.Rules.file = "no_interface.ml")
  | fs -> Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

(* --- Clean and suppressed fixtures ----------------------------------- *)

let clean_fixture_passes () =
  Alcotest.(check (list string)) "no findings" [] (rules_fired (lint "good_clean.ml"))

let annotated_good_fixtures_pass () =
  Alcotest.(check (list string)) "guarded-correct is clean" []
    (rules_fired (lint "good_guarded.ml"));
  Alcotest.(check (list string)) "borrow-correct is clean" []
    (rules_fired (lint "good_borrow.ml"))

let suppressions_honoured () =
  Alcotest.(check (list string)) "all suppressed" []
    (rules_fired (lint "suppressed.ml"))

let findings_have_positions () =
  match lint "bad_obj_magic.ml" with
  | [ f ] ->
    Alcotest.(check int) "line" 3 f.Rules.line;
    Alcotest.(check bool) "column sane" true (f.Rules.col >= 0)
  | _ -> Alcotest.fail "expected one finding"

(* --- Kind sensitivity ------------------------------------------------ *)

let driver_kind_may_print_and_exit () =
  Alcotest.(check (list string)) "printf ok in drivers" []
    (rules_fired (lint ~kind:Rules.Driver "bad_printf.ml"));
  Alcotest.(check (list string)) "exit ok in drivers" []
    (rules_fired (lint ~kind:Rules.Driver "bad_exit.ml"))

let driver_kind_still_deterministic () =
  Alcotest.(check (list string)) "random still banned in drivers"
    [ "determinism-random" ]
    (rules_fired (lint ~kind:Rules.Driver "bad_random.ml"));
  Alcotest.(check (list string)) "random allowed in lib/prng" []
    (rules_fired (lint ~kind:Rules.Prng_library "bad_random.ml"))

let tool_kind_deterministic_but_may_print () =
  (* tools/ sits between lib and drivers: it may print and exit, but
     the determinism rules still apply. *)
  Alcotest.(check (list string)) "printf ok in tools" []
    (rules_fired (lint ~kind:Rules.Tool "bad_printf.ml"));
  Alcotest.(check (list string)) "clock banned in tools"
    [ "determinism-clock" ]
    (rules_fired (lint ~kind:Rules.Tool "bad_clock.ml"));
  Alcotest.(check (list string)) "env banned in tools"
    [ "determinism-env" ]
    (rules_fired (lint ~kind:Rules.Tool "bad_env.ml"));
  (* Drivers are exempt from the deterministic-scope rules, and the
     hashtbl-order heuristic stays library-only. *)
  Alcotest.(check (list string)) "clock ok in drivers" []
    (rules_fired (lint ~kind:Rules.Driver "bad_clock.ml"));
  Alcotest.(check (list string)) "hashtbl order ok in tools" []
    (rules_fired (lint ~kind:Rules.Tool "bad_hashtbl_order.ml"))

let classification_matches_layout () =
  let check path expected =
    Alcotest.(check bool) path true (Driver.classify path = expected)
  in
  check "lib/core/engine.ml" Rules.Library;
  check "lib/prng/xoshiro.ml" Rules.Prng_library;
  check "bin/msp_cli.ml" Rules.Driver;
  check "bench/main.ml" Rules.Driver;
  check "examples/quickstart.ml" Rules.Driver;
  check "tools/lint/msp_lint.ml" Rules.Tool;
  check "tools/gen_golden/gen_golden.ml" Rules.Tool

(* --- Infrastructure --------------------------------------------------- *)

let parse_errors_reported () =
  match Driver.lint_file ~kind:Rules.Library (fixture "syntax_error.ml.broken") with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error msg -> Alcotest.(check bool) "message non-empty" true (msg <> "")

let every_rule_documented () =
  (* Each emitted rule id must have --explain text, and rule ids are
     unique. *)
  let ids = List.map (fun (r : Rules.rule) -> r.id) Rules.rules in
  Alcotest.(check int) "unique ids" (List.length ids)
    (List.length (List.sort_uniq String.compare ids));
  List.iter
    (fun id ->
      match Rules.find_rule id with
      | Some r ->
        Alcotest.(check bool) (id ^ " has explain") true
          (String.length r.explain > 40)
      | None -> Alcotest.failf "rule %s vanished" id)
    ids;
  List.iter
    (fun fired ->
      Alcotest.(check bool) (fired ^ " is documented") true
        (Rules.find_rule fired <> None))
    (List.concat_map
       (fun fx -> rules_fired (lint fx))
       [ "bad_random.ml"; "bad_float_eq.ml"; "bad_obj_magic.ml";
         "bad_exit.ml"; "bad_printf.ml"; "bad_nan_source.ml";
         "bad_boxed_float.ml" ])

let lint_tree_aggregates () =
  let findings, errors = Driver.lint_tree [ "lint_fixtures" ] in
  Alcotest.(check (list string)) "no parse errors" [] errors;
  (* Fixtures directly under lint_fixtures are classified Driver (no
     lib/ segment), so of the per-file rules only the kind-independent
     ones fire; the annotation passes (guarded-by, borrow-escape) are
     kind-independent too, and the fixture trees contribute missing-mli
     and the tree2 cross-module borrow findings. *)
  let rules = rules_fired findings in
  List.iter
    (fun r ->
      Alcotest.(check bool) (r ^ " expected") true
        (List.mem r
           [ "determinism-random"; "float-poly-eq"; "obj-magic";
             "nan-source"; "missing-mli"; "guarded-by"; "borrow-escape";
             "boxed-float-closure" ]))
    rules;
  Alcotest.(check bool) "missing-mli present" true
    (List.mem "missing-mli" rules)

let cross_module_borrows_resolve () =
  (* [Borrowlib.view] is [@@borrow] only in borrowlib.mli: the write
     and the public return in consumer.ml are only visible to a
     whole-tree run that built the registry from every interface. *)
  let findings, errors = Driver.lint_tree [ fixture "tree2" ] in
  Alcotest.(check (list string)) "no parse errors" [] errors;
  Alcotest.(check (list string)) "both escapes flagged"
    [ "borrow-escape"; "borrow-escape" ]
    (List.map (fun (f : Rules.finding) -> f.rule) findings);
  List.iter
    (fun (f : Rules.finding) ->
      Alcotest.(check string) "in consumer.ml" "consumer.ml"
        (Filename.basename f.file))
    findings

let severities_attached () =
  (match Rules.find_rule "determinism-hashtbl-order" with
  | Some r -> Alcotest.(check bool) "hashtbl rule warns" true (r.severity = Rules.Warning)
  | None -> Alcotest.fail "rule missing");
  (match Rules.find_rule "guarded-by" with
  | Some r -> Alcotest.(check bool) "guarded-by errors" true (r.severity = Rules.Error)
  | None -> Alcotest.fail "rule missing");
  List.iter
    (fun (f : Rules.finding) ->
      Alcotest.(check bool) "finding severity is warning" true
        (f.severity = Rules.Warning))
    (lint "bad_hashtbl_order.ml")

let machine_readable_emitters () =
  let findings = lint "bad_unguarded.ml" in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
    in
    go 0
  in
  let json = Output.json ~findings ~errors:[] ~files_checked:1 in
  List.iter
    (fun frag ->
      Alcotest.(check bool) ("json has " ^ frag) true (contains json frag))
    [ "\"tool\":\"msp_lint\""; "\"rule\":\"guarded-by\"";
      "\"severity\":\"error\""; "\"files_checked\":1" ];
  let sarif = Output.sarif ~findings ~errors:[ "boom \"quoted\"" ] in
  List.iter
    (fun frag ->
      Alcotest.(check bool) ("sarif has " ^ frag) true (contains sarif frag))
    [ "\"version\":\"2.1.0\""; "\"ruleId\":\"guarded-by\"";
      "\"startLine\":"; "\"executionSuccessful\":false";
      "boom \\\"quoted\\\"" ];
  (* Every rule ships in the SARIF driver block so viewers can render
     descriptions without the repo checked out. *)
  List.iter
    (fun (r : Rules.rule) ->
      Alcotest.(check bool) (r.id ^ " in sarif rules") true
        (contains sarif ("\"id\":\"" ^ r.id ^ "\"")))
    Rules.rules

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "determinism-random" `Quick
            rule_determinism_random;
          Alcotest.test_case "float-poly-eq" `Quick rule_float_poly_eq;
          Alcotest.test_case "obj-magic" `Quick rule_obj_magic;
          Alcotest.test_case "lib-exit" `Quick rule_lib_exit;
          Alcotest.test_case "io-stdout" `Quick rule_io_stdout;
          Alcotest.test_case "nan-source" `Quick rule_nan_source;
          Alcotest.test_case "missing-mli" `Quick rule_missing_mli;
          Alcotest.test_case "guarded-by" `Quick rule_guarded_by;
          Alcotest.test_case "borrow-escape writes" `Quick rule_borrow_write;
          Alcotest.test_case "borrow-escape stores" `Quick rule_borrow_store;
          Alcotest.test_case "borrow-escape bigarray writes" `Quick
            rule_borrow_bigarray;
          Alcotest.test_case "borrow-escape fleet buffers" `Quick
            rule_borrow_fleet;
          Alcotest.test_case "determinism-clock" `Quick
            rule_determinism_clock;
          Alcotest.test_case "determinism-env" `Quick rule_determinism_env;
          Alcotest.test_case "boxed-float-closure" `Quick
            rule_boxed_float_closure;
          Alcotest.test_case "determinism-hashtbl-order" `Quick
            rule_hashtbl_order;
        ] );
      ( "hygiene",
        [
          Alcotest.test_case "clean fixture" `Quick clean_fixture_passes;
          Alcotest.test_case "annotated-good fixtures" `Quick
            annotated_good_fixtures_pass;
          Alcotest.test_case "suppressions" `Quick suppressions_honoured;
          Alcotest.test_case "positions" `Quick findings_have_positions;
        ] );
      ( "kinds",
        [
          Alcotest.test_case "drivers may print/exit" `Quick
            driver_kind_may_print_and_exit;
          Alcotest.test_case "drivers stay deterministic" `Quick
            driver_kind_still_deterministic;
          Alcotest.test_case "tools deterministic but may print" `Quick
            tool_kind_deterministic_but_may_print;
          Alcotest.test_case "classification" `Quick
            classification_matches_layout;
        ] );
      ( "infrastructure",
        [
          Alcotest.test_case "parse errors" `Quick parse_errors_reported;
          Alcotest.test_case "rules documented" `Quick every_rule_documented;
          Alcotest.test_case "lint_tree" `Quick lint_tree_aggregates;
          Alcotest.test_case "cross-module borrows" `Quick
            cross_module_borrows_resolve;
          Alcotest.test_case "severities" `Quick severities_attached;
          Alcotest.test_case "json+sarif emitters" `Quick
            machine_readable_emitters;
        ] );
    ]
