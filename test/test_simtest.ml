(* Tests for the deterministic simulation-testing harness.

   The properties that make simtest trustworthy: a run is a pure
   function of (seed, ops) — byte-identical verdicts on re-run; the
   fault hooks hit the paths they claim to (the quarantine counter
   proves it); a clean build passes; a seeded bug is caught by the
   oracle and shrinks to a locally-minimal, replayable repro. *)

let ops_to_strings ops = List.map Simtest.Op.to_string ops

let same_seed_same_run () =
  let a = Simtest.Harness.run ~seed:7 ~count:200 () in
  let b = Simtest.Harness.run ~seed:7 ~count:200 () in
  Alcotest.(check string)
    "byte-identical results"
    (Simtest.Harness.result_to_string a)
    (Simtest.Harness.result_to_string b);
  (match a.Simtest.Harness.outcome with
   | Simtest.Harness.Pass -> ()
   | Simtest.Harness.Fail _ ->
     Alcotest.failf "clean build failed simtest:\n%s"
       (Simtest.Harness.result_to_string a));
  Alcotest.(check bool) "oracle actually ran" true
    (a.Simtest.Harness.checks > 0)

let gen_is_pure () =
  let a = Simtest.Harness.gen_ops ~seed:11 ~count:300 () in
  let b = Simtest.Harness.gen_ops ~seed:11 ~count:300 () in
  Alcotest.(check (list string)) "same op list" (ops_to_strings a)
    (ops_to_strings b);
  let c = Simtest.Harness.gen_ops ~seed:12 ~count:300 () in
  Alcotest.(check bool) "different seeds differ" true
    (ops_to_strings a <> ops_to_strings c)

(* The op mix is a constant: the weights, their order and every draw
   they make.  The digest of seed 101's first 2000 printed ops pins it. *)
let op_mix_pinned () =
  let ops = Simtest.Harness.gen_ops ~seed:101 ~count:2000 () in
  Alcotest.(check string) "md5 of the printed ops"
    "99d832e5c13330e8e7b2083248f056e4"
    (Digest.to_hex (Digest.string (String.concat "\n" (ops_to_strings ops))))

let op_roundtrip () =
  let ops = Simtest.Harness.gen_ops ~seed:3 ~count:400 () in
  List.iter
    (fun op ->
      let line = Simtest.Op.to_string op in
      match Simtest.Op.of_string line with
      | Error msg -> Alcotest.failf "%s failed to parse: %s" line msg
      | Ok op' ->
        Alcotest.(check string) "roundtrip" line (Simtest.Op.to_string op'))
    ops

let replay_roundtrip () =
  let ops = Simtest.Harness.gen_ops ~seed:5 ~count:60 () in
  let text = Simtest.Replay.to_string ~seed:5 ops in
  match Simtest.Replay.of_string text with
  | Error msg -> Alcotest.failf "replay parse failed: %s" msg
  | Ok (seed, ops') ->
    Alcotest.(check int) "seed" 5 seed;
    Alcotest.(check (list string)) "ops" (ops_to_strings ops)
      (ops_to_strings ops');
    (* Comments and blank lines are tolerated for hand-edited repros. *)
    let annotated = text ^ "\n# trailing comment\n\n" in
    (match Simtest.Replay.of_string annotated with
     | Ok (s, o) ->
       Alcotest.(check int) "annotated seed" 5 s;
       Alcotest.(check int) "annotated count" (List.length ops)
         (List.length o)
     | Error msg -> Alcotest.failf "annotated parse failed: %s" msg)

let replay_rejects_garbage () =
  let bad text =
    match Simtest.Replay.of_string text with
    | Ok _ -> Alcotest.failf "parsed bogus artifact %S" text
    | Error _ -> ()
  in
  bad "";
  bad "not-the-magic\nseed 1\nops 0\n";
  bad "msp-simtest-replay-v1\nseed 1\n";
  bad "msp-simtest-replay-v1\nseed 1\nops 2\nreset\n";
  bad "msp-simtest-replay-v1\nseed 1\nops 1\nfrobnicate\n"

(* The seeded bug (drop the last request of multi-request rounds on
   the live path) must be caught, and the shrinker must cut the repro
   down to a locally minimal op list that still fails on replay. *)
let shrinker_minimizes_seeded_bug () =
  let seed = 42 in
  let ops = Simtest.Harness.gen_ops ~seed ~count:120 () in
  let fails = Simtest.Harness.fails ~inject_bug:true ~seed in
  Alcotest.(check bool) "seeded bug is caught" true (fails ops);
  let minimal = Simtest.Shrink.minimize ~fails ops in
  Alcotest.(check bool) "minimal repro still fails" true (fails minimal);
  Alcotest.(check bool) "shrunk well below the original" true
    (List.length minimal <= 3);
  (* One-minimality: dropping any single remaining op makes it pass. *)
  List.iteri
    (fun i _ ->
      let without = List.filteri (fun j _ -> j <> i) minimal in
      if without <> [] && fails without then
        Alcotest.failf "dropping op %d still fails — not minimal" i)
    minimal;
  (* The repro replays through the artifact format. *)
  let text = Simtest.Replay.to_string ~seed minimal in
  (match Simtest.Replay.of_string text with
   | Ok (seed', ops') ->
     Alcotest.(check bool) "replayed repro fails" true
       (Simtest.Harness.fails ~inject_bug:true ~seed:seed' ops');
     Alcotest.(check bool) "fixed build passes the repro" true
       (not (Simtest.Harness.fails ~seed:seed' ops'))
   | Error msg -> Alcotest.failf "repro artifact did not parse: %s" msg)

(* The committed artifact is a real shrinker output (msp simtest
   --inject-bug): one two-request round.  It must keep failing on the
   buggy build and keep passing on the fixed one — the repro stays
   honest as the codebase moves. *)
let committed_repro_replays () =
  let text =
    In_channel.with_open_bin "golden/simtest_repro_inject.txt"
      In_channel.input_all
  in
  match Simtest.Replay.of_string text with
  | Error msg -> Alcotest.failf "committed repro did not parse: %s" msg
  | Ok (seed, ops) ->
    Alcotest.(check int) "one op" 1 (List.length ops);
    Alcotest.(check bool) "fails on the seeded-bug build" true
      (Simtest.Harness.fails ~inject_bug:true ~seed ops);
    Alcotest.(check bool) "passes on the fixed build" true
      (not (Simtest.Harness.fails ~seed ops))

let ddmin_is_minimal_on_lists () =
  (* Pure list check, no harness: failing = contains both 3 and 7. *)
  let fails xs = List.mem 3 xs && List.mem 7 xs in
  let input = List.init 50 (fun i -> i) in
  let minimal = Simtest.Shrink.ddmin fails input in
  Alcotest.(check (list int)) "exactly the two culprits" [ 3; 7 ] minimal;
  (* A passing input comes back unchanged. *)
  Alcotest.(check (list int)) "passing input untouched" [ 1; 2 ]
    (Simtest.Shrink.ddmin fails [ 1; 2 ])

(* Explicit fault scripts: the injected corruption must reach the disk
   store (quarantine counter moves) and the degraded answers must stay
   bitwise equal to cold recomputes (the run passes). *)
let read_faults_quarantine () =
  let round = [| [| 1.5 |]; [| -2.0 |] |] in
  let ops =
    [
      Simtest.Op.Step round;
      Simtest.Op.Opt_query;  (* populate memory + disk *)
      Simtest.Op.Disk_read_corrupt Simtest.Op.Garbage;
      Simtest.Op.Disk_read_corrupt Simtest.Op.Truncate;
      Simtest.Op.Disk_read_corrupt Simtest.Op.Sys_err;
      Simtest.Op.Checkpoint;
    ]
  in
  let r = Simtest.Harness.run_ops ~seed:1 ops in
  (match r.Simtest.Harness.outcome with
   | Simtest.Harness.Pass -> ()
   | Simtest.Harness.Fail _ ->
     Alcotest.failf "fault run failed:\n%s" (Simtest.Harness.result_to_string r));
  Alcotest.(check int) "three faults armed" 3 r.Simtest.Harness.faults_armed;
  (* Garbage and Truncate leave an invalid file behind; both must have
     been quarantined.  Sys_err is an IO error, not a bad entry. *)
  Alcotest.(check int) "corrupt entries quarantined" 2
    r.Simtest.Harness.quarantined

let write_fault_degrades_to_recompute () =
  let ops =
    [
      Simtest.Op.Step [| [| 4.0 |] |];
      Simtest.Op.Disk_write_fail;
      Simtest.Op.Opt_query;  (* the solve runs; persisting it fails *)
      Simtest.Op.Cache_clear;
      Simtest.Op.Opt_query;  (* no disk entry: recompute, same bits *)
      Simtest.Op.Checkpoint;
    ]
  in
  let r = Simtest.Harness.run_ops ~seed:2 ops in
  (match r.Simtest.Harness.outcome with
   | Simtest.Harness.Pass -> ()
   | Simtest.Harness.Fail _ ->
     Alcotest.failf "write-fault run failed:\n%s"
       (Simtest.Harness.result_to_string r));
  Alcotest.(check int) "one fault armed" 1 r.Simtest.Harness.faults_armed;
  Alcotest.(check int) "nothing quarantined" 0 r.Simtest.Harness.quarantined

let bad_steps_leave_session_intact () =
  let ops =
    [
      Simtest.Op.Step [| [| 0.5 |] |];
      Simtest.Op.Bad_step Simtest.Op.Dim_mismatch;
      Simtest.Op.Bad_step Simtest.Op.Non_finite;
      Simtest.Op.Step [| [| -1.0 |]; [| 2.5 |] |];
      Simtest.Op.Checkpoint;
      Simtest.Op.Reset;
      Simtest.Op.Bad_step Simtest.Op.Non_finite;
      Simtest.Op.Checkpoint;
    ]
  in
  let r = Simtest.Harness.run_ops ~seed:9 ops in
  match r.Simtest.Harness.outcome with
  | Simtest.Harness.Pass -> ()
  | Simtest.Harness.Fail _ ->
    Alcotest.failf "bad-step run failed:\n%s"
      (Simtest.Harness.result_to_string r)

(* --- serve ops -------------------------------------------------------- *)

let serve_op_strings_roundtrip () =
  let pinned =
    [
      (Simtest.Op.Serve_open, "serve-open");
      (Simtest.Op.Serve_step (0, [||]), "serve-step 0");
      (Simtest.Op.Serve_checkpoint 1, "serve-checkpoint 1");
      (Simtest.Op.Serve_close 2, "serve-close 2");
      (Simtest.Op.Serve_kill (1, true), "serve-kill 1 lose");
      (Simtest.Op.Serve_kill (0, false), "serve-kill 0 keep");
      (Simtest.Op.Serve_bad_frame Simtest.Op.Truncated,
       "serve-bad-frame truncated");
      (Simtest.Op.Serve_bad_frame Simtest.Op.Bad_version,
       "serve-bad-frame bad-version");
      (Simtest.Op.Serve_bad_frame Simtest.Op.Non_finite_coord,
       "serve-bad-frame non-finite");
    ]
  in
  List.iter
    (fun (op, line) ->
      Alcotest.(check string) "pinned spelling" line (Simtest.Op.to_string op))
    pinned;
  List.iter
    (fun op ->
      let line = Simtest.Op.to_string op in
      match Simtest.Op.of_string line with
      | Error msg -> Alcotest.failf "%s did not parse: %s" line msg
      | Ok op' ->
        Alcotest.(check string) "roundtrip" line (Simtest.Op.to_string op'))
    (Simtest.Op.Serve_step (3, [| [| 0.5 |]; [| -1.25 |] |])
     :: List.map fst pinned)

(* An explicit serve script through the whole fault surface: crashes
   with journals intact must resume bit-exactly (the sweep would catch
   any drift), journal-losing crashes must fail cleanly, and mangled
   frames must earn errors without hurting anyone. *)
let serve_ops_exercise_daemon () =
  let ops =
    [
      Simtest.Op.Serve_open;
      Simtest.Op.Serve_open;
      Simtest.Op.Serve_open;
      Simtest.Op.Serve_step (0, [| [| 0.5 |] |]);
      Simtest.Op.Serve_step (1, [| [| -1.0 |]; [| 2.0 |] |]);
      Simtest.Op.Serve_checkpoint 0;
      (* Crash every shard, journals intact: replay must resume. *)
      Simtest.Op.Serve_kill (0, false);
      Simtest.Op.Serve_kill (1, false);
      Simtest.Op.Serve_kill (2, false);
      Simtest.Op.Serve_step (0, [| [| 1.5 |] |]);
      Simtest.Op.Checkpoint;
      Simtest.Op.Serve_bad_frame Simtest.Op.Truncated;
      Simtest.Op.Serve_bad_frame Simtest.Op.Bad_version;
      Simtest.Op.Serve_bad_frame Simtest.Op.Non_finite_coord;
      Simtest.Op.Serve_close 1;
      (* Lose every journal: the survivors must fail cleanly. *)
      Simtest.Op.Serve_kill (0, true);
      Simtest.Op.Serve_kill (1, true);
      Simtest.Op.Serve_kill (2, true);
      Simtest.Op.Serve_step (0, [| [| 0.0 |] |]);
      Simtest.Op.Checkpoint;
    ]
  in
  let r = Simtest.Harness.run_ops ~seed:4 ops in
  (match r.Simtest.Harness.outcome with
   | Simtest.Harness.Pass -> ()
   | Simtest.Harness.Fail _ ->
     Alcotest.failf "serve script failed:\n%s"
       (Simtest.Harness.result_to_string r));
  Alcotest.(check int) "six crashes and three bad frames armed" 9
    r.Simtest.Harness.faults_armed;
  Alcotest.(check bool) "the serve oracle ran" true
    (r.Simtest.Harness.checks > 0)

(* The audit oracle: a deliberately unclamped algorithm must turn up
   as a dirty report at the next checkpoint, and the repro must shrink
   and replay like any other simtest failure. *)
let audit_bug_is_caught () =
  let r =
    Simtest.Harness.run_ops ~inject_audit_bug:true ~seed:1
      [ Simtest.Op.Step [| [| 6.0 |] |]; Simtest.Op.Checkpoint ]
  in
  match r.Simtest.Harness.outcome with
  | Simtest.Harness.Pass -> Alcotest.fail "audit bug went unnoticed"
  | Simtest.Harness.Fail { reason; _ } ->
    let contains hay needle =
      let n = String.length needle in
      let rec go i =
        i + n <= String.length hay
        && (String.sub hay i n = needle || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) "failure names the audit" true
      (contains reason "audit")

let audit_bug_shrinks () =
  let seed = 7 in
  let ops = Simtest.Harness.gen_ops ~seed ~count:80 () in
  let fails = Simtest.Harness.fails ~inject_audit_bug:true ~seed in
  Alcotest.(check bool) "audit bug is caught" true (fails ops);
  let minimal = Simtest.Shrink.minimize ~fails ops in
  Alcotest.(check bool) "minimal repro still fails" true (fails minimal);
  Alcotest.(check bool) "shrunk well below the original" true
    (List.length minimal <= 3);
  let text = Simtest.Replay.to_string ~seed minimal in
  match Simtest.Replay.of_string text with
  | Ok (seed', ops') ->
    Alcotest.(check bool) "replayed repro fails" true
      (Simtest.Harness.fails ~inject_audit_bug:true ~seed:seed' ops');
    Alcotest.(check bool) "clean build passes the repro" true
      (not (Simtest.Harness.fails ~seed:seed' ops'))
  | Error msg -> Alcotest.failf "repro artifact did not parse: %s" msg

let qcheck_random_runs_pass =
  QCheck.Test.make ~count:12
    ~name:"random op sequences pass on a clean build"
    QCheck.(pair (int_range 0 10_000) (int_range 0 40))
    (fun (seed, count) ->
      match (Simtest.Harness.run ~seed ~count ()).Simtest.Harness.outcome with
      | Simtest.Harness.Pass -> true
      | Simtest.Harness.Fail _ -> false)

let () =
  Alcotest.run "simtest"
    [
      ( "determinism",
        [
          Alcotest.test_case "same seed, same run" `Quick same_seed_same_run;
          Alcotest.test_case "gen is pure" `Quick gen_is_pure;
          Alcotest.test_case "op mix pinned" `Quick op_mix_pinned;
        ] );
      ( "serialization",
        [
          Alcotest.test_case "op roundtrip" `Quick op_roundtrip;
          Alcotest.test_case "replay roundtrip" `Quick replay_roundtrip;
          Alcotest.test_case "replay rejects garbage" `Quick
            replay_rejects_garbage;
        ] );
      ( "shrinker",
        [
          Alcotest.test_case "minimizes the seeded bug" `Quick
            shrinker_minimizes_seeded_bug;
          Alcotest.test_case "ddmin on plain lists" `Quick
            ddmin_is_minimal_on_lists;
          Alcotest.test_case "committed repro replays" `Quick
            committed_repro_replays;
        ] );
      ( "faults",
        [
          Alcotest.test_case "read faults quarantine" `Quick
            read_faults_quarantine;
          Alcotest.test_case "write fault degrades" `Quick
            write_fault_degrades_to_recompute;
          Alcotest.test_case "bad steps leave session intact" `Quick
            bad_steps_leave_session_intact;
        ] );
      ( "serve",
        [
          Alcotest.test_case "serve op strings roundtrip" `Quick
            serve_op_strings_roundtrip;
          Alcotest.test_case "serve ops drive the daemon" `Quick
            serve_ops_exercise_daemon;
          Alcotest.test_case "audit oracle catches the bug" `Quick
            audit_bug_is_caught;
          Alcotest.test_case "audit repro shrinks and replays" `Quick
            audit_bug_shrinks;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ qcheck_random_runs_pass ] );
    ]
