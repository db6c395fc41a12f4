(* Tests for the experiment harness: ratio measurement, sweeps and the
   catalog itself (quick mode). *)

module Config = Mobile_server.Config

let check_float = Alcotest.(check (float 1e-9))

(* --- Ratio ---------------------------------------------------------- *)

let summarize_single () =
  let rng = Prng.Xoshiro.create 1L in
  let s = Experiments.Ratio.summarize rng [| 2.5 |] in
  check_float "mean" 2.5 s.Experiments.Ratio.mean;
  check_float "lo = mean" 2.5 s.Experiments.Ratio.ci_lo

let summarize_many () =
  let rng = Prng.Xoshiro.create 2L in
  let s = Experiments.Ratio.summarize rng [| 1.0; 2.0; 3.0 |] in
  check_float "mean" 2.0 s.Experiments.Ratio.mean;
  if s.Experiments.Ratio.ci_lo > 2.0 || s.Experiments.Ratio.ci_hi < 2.0 then
    Alcotest.fail "CI must bracket the mean"

let summarize_empty () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Ratio.summarize: no samples") (fun () ->
      ignore (Experiments.Ratio.summarize (Prng.Xoshiro.create 1L) [||]))

let cost_pair_validates () =
  let config = Config.make () in
  let packed =
    Mobile_server.Instance.pack
      (Mobile_server.Instance.make ~start:(Geometry.Vec.zero 1)
         [| [| Geometry.Vec.make1 1.0 |] |])
  in
  Alcotest.check_raises "opt 0"
    (Invalid_argument "Ratio.cost_pair: non-positive optimum") (fun () ->
      ignore
        (Experiments.Ratio.cost_pair config Mobile_server.Mtc.algorithm
           packed ~opt:0.0))

(* --- Ratio.cells + column_means = the old t1 fold ----------------- *)

(* A verbatim copy of the fold t1 ran before [Ratio.cells]: one
   singleton accumulator per (seed, column), merged column-wise with
   [List.map2] in seed order.  [Stats.Running]'s accumulator and its
   deleted [merge] are copied in with it.  The property below checks
   [Ratio.cells] and [Ratio.column_means] against it bit for bit; never
   edit it to make the two agree. *)
module Old_t1_fold = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable lo : float;
    mutable hi : float;
    mutable total : float;
  }

  let create () =
    { n = 0; mean = 0.0; m2 = 0.0; lo = nan; hi = nan; total = 0.0 }

  let add acc x =
    if not (Float.is_finite x) then
      invalid_arg "Running.add: non-finite observation";
    acc.n <- acc.n + 1;
    let delta = x -. acc.mean in
    acc.mean <- acc.mean +. (delta /. float_of_int acc.n);
    acc.m2 <- acc.m2 +. (delta *. (x -. acc.mean));
    acc.total <- acc.total +. x;
    if acc.n = 1 then begin
      acc.lo <- x;
      acc.hi <- x
    end else begin
      if x < acc.lo then acc.lo <- x;
      if x > acc.hi then acc.hi <- x
    end

  let mean acc = if acc.n = 0 then nan else acc.mean

  let merge a b =
    if a.n = 0 then { b with n = b.n }
    else if b.n = 0 then { a with n = a.n }
    else begin
      let n = a.n + b.n in
      let fa = float_of_int a.n and fb = float_of_int b.n in
      let delta = b.mean -. a.mean in
      let mean = a.mean +. (delta *. fb /. float_of_int n) in
      let m2 = a.m2 +. b.m2 +. (delta *. delta *. fa *. fb /. float_of_int n) in
      {
        n;
        mean;
        m2;
        lo = Float.min a.lo b.lo;
        hi = Float.max a.hi b.hi;
        total = a.total +. b.total;
      }
    end

  (* t1's row, with [value rng alg_rng column] in place of the
     algorithm's ratio. *)
  let row ~seeds base columns value =
    let streams = Array.init seeds (Prng.Stream.replicate base) in
    let alg_streams =
      Array.init seeds (fun i -> Prng.Stream.replicate base (1000 + i))
    in
    let cells =
      Exec.mapi
        (fun i rng ->
          let draw = value rng in
          List.map
            (fun column ->
              let alg_rng = Prng.Xoshiro.copy alg_streams.(i) in
              let acc = create () in
              add acc (draw alg_rng column);
              acc)
            columns)
        streams
    in
    let accumulators =
      Array.fold_left
        (fun accs cell -> List.map2 merge accs cell)
        (List.map (fun _ -> create ()) columns)
        cells
    in
    List.map mean accumulators
end

(* A cell's values span six decades, so the rounding of a mean depends
   on the order its terms are folded in. *)
let fold_value rng =
  let scale = Float.pow 10.0 (Prng.Dist.uniform rng ~lo:(-3.0) ~hi:3.0) in
  fun alg_rng column ->
    scale
    *. Prng.Dist.uniform alg_rng ~lo:1.0 ~hi:2.0
    *. float_of_int (column + 1)

let qcheck_cells_match_old_fold =
  QCheck.Test.make ~count:200
    ~name:"cells + column_means = old t1 fold"
    QCheck.(triple (int_range 1 8) (int_range 1 10) small_nat)
    (fun (seeds, width, seed) ->
      let base = Prng.Stream.named ~name:"cells-fold" ~seed in
      let columns = List.init width Fun.id in
      let bits = List.map Int64.bits_of_float in
      let at jobs =
        let saved = Exec.jobs () in
        Fun.protect
          ~finally:(fun () -> Exec.set_jobs saved)
          (fun () ->
            Exec.set_jobs jobs;
            let got =
              Experiments.Ratio.column_means
                (Experiments.Ratio.cells ~seeds base (fun i rng ->
                     let draw = fold_value rng in
                     List.map
                       (fun column ->
                         draw (Prng.Stream.replicate base (1000 + i)) column)
                       columns))
            and want = Old_t1_fold.row ~seeds base columns fold_value in
            List.equal Int64.equal (bits got) (bits want))
      in
      at 1 && at 2)

let vs_line_dp_at_least_one () =
  let config = Config.make ~d_factor:2.0 ~delta:0.5 () in
  let s =
    Experiments.Ratio.vs_opt ~seeds:3 ~base_seed:1 ~name:"test-vsdp"
      config Mobile_server.Mtc.algorithm
      (fun rng -> Workloads.Clusters.generate ~dim:1 ~t:40 rng)
  in
  Array.iter
    (fun r ->
      if r < 1.0 -. 1e-6 then
        Alcotest.failf "ratio %g below 1 against an exact optimum" r)
    s.Experiments.Ratio.ratios

let vs_measurement_reproducible () =
  let config = Config.make ~d_factor:2.0 ~delta:0.5 () in
  let measure () =
    (Experiments.Ratio.vs_opt ~seeds:2 ~base_seed:7 ~name:"test-rep"
       config Mobile_server.Mtc.algorithm (fun rng ->
         Workloads.Clusters.generate ~dim:1 ~t:30 rng))
      .Experiments.Ratio.mean
  in
  check_float "reproducible" (measure ()) (measure ())

(* --- Sweep ---------------------------------------------------------- *)

let sweep_recovers_exponent () =
  (* Feed the sweep a deterministic power law and check the fit. *)
  let rng = Prng.Xoshiro.create 3L in
  let sweep =
    Experiments.Sweep.run ~knob:"x" ~xs:[ 1.0; 2.0; 4.0; 8.0 ]
      ~predicted:(fun x -> x)
      (fun x ->
        Experiments.Ratio.summarize rng [| 3.0 *. Float.pow x 2.0 |])
  in
  (match sweep.Experiments.Sweep.fit with
   | Some fit ->
     Alcotest.(check (float 1e-6)) "slope" 2.0 fit.Stats.Regression.slope
   | None -> Alcotest.fail "expected a fit");
  Alcotest.(check int) "rows" 4 (List.length sweep.Experiments.Sweep.rows)

let sweep_table_shape () =
  let rng = Prng.Xoshiro.create 4L in
  let sweep =
    Experiments.Sweep.run ~knob:"T" ~xs:[ 1.0; 2.0 ]
      ~predicted:(fun _ -> 1.0)
      (fun x -> Experiments.Ratio.summarize rng [| x |])
  in
  let table = Experiments.Sweep.to_table sweep in
  let md = Tables.render_markdown table in
  let lines = String.split_on_char '\n' (String.trim md) in
  Alcotest.(check int) "header + rule + 2 rows" 4 (List.length lines)

let sweep_slope_line_no_fit () =
  let rng = Prng.Xoshiro.create 5L in
  let sweep =
    Experiments.Sweep.run ~knob:"z" ~xs:[ 1.0 ] ~predicted:(fun _ -> 1.0)
      (fun x -> Experiments.Ratio.summarize rng [| x |])
  in
  Alcotest.(check string) "message" "no exponent fit possible vs z"
    (Experiments.Sweep.slope_line sweep)

(* --- Catalog -------------------------------------------------------- *)

let catalog_ids () =
  Alcotest.(check (list string)) "ids"
    [ "e1"; "e2"; "e3"; "e4"; "e5"; "e6"; "e7"; "e8"; "e9"; "e10"; "t1";
      "a1"; "a2"; "x1"; "b1"; "f1" ]
    Experiments.Catalog.ids

let catalog_unknown_id () =
  let raised = ref false in
  (try ignore (Experiments.Catalog.run ~quick:true "nope")
   with Invalid_argument _ -> raised := true);
  Alcotest.(check bool) "raises" true !raised

let result_nonempty r =
  Alcotest.(check bool)
    (r.Experiments.Catalog.id ^ " has tables")
    true
    (r.Experiments.Catalog.tables <> []);
  List.iter
    (fun (caption, table) ->
      if caption = "" then Alcotest.fail "empty caption";
      let md = Tables.render_markdown table in
      if String.length md < 10 then Alcotest.fail "suspiciously tiny table")
    r.Experiments.Catalog.tables

(* Quick-mode runs of the fast experiments; the slow ones (e4, e5, e8,
   t1 involve offline solves) are exercised by the bench binary and get
   a `Slow` test each. *)
let catalog_quick_fast id () =
  result_nonempty (Experiments.Catalog.run ~quick:true id)

let catalog_e1_grows () =
  let r = Experiments.Catalog.run ~quick:true "e1" in
  (* The findings should report a positive exponent. *)
  let has_fit =
    List.exists
      (fun line ->
        match String.index_opt line ':' with
        | Some _ -> true
        | None -> false)
      r.Experiments.Catalog.findings
  in
  Alcotest.(check bool) "has findings" true has_fit

let catalog_e9_invariant_holds () =
  let r = Experiments.Catalog.run ~quick:true "e9" in
  let ok =
    List.exists
      (fun line ->
        String.length line >= 9 && String.sub line 0 9 = "invariant")
      r.Experiments.Catalog.findings
  in
  Alcotest.(check bool) "invariant finding present and positive" true ok;
  let lemma6_clean =
    List.exists
      (fun line ->
        (* "Lemma 6: 0 violations in ..." *)
        String.length line >= 10 && String.sub line 0 10 = "Lemma 6: 0")
      r.Experiments.Catalog.findings
  in
  Alcotest.(check bool) "no Lemma 6 violations" true lemma6_clean

let markdown_report_renders () =
  let r = Experiments.Catalog.run ~quick:true "e1" in
  let section = Experiments.Catalog.result_to_markdown r in
  Alcotest.(check bool) "has heading" true
    (String.length section > 5 && String.sub section 0 5 = "## E1");
  let report = Experiments.Catalog.report_markdown [ r ] in
  Alcotest.(check bool) "has banner" true
    (String.length report > 1 && report.[0] = '#');
  Alcotest.(check bool) "section embedded" true
    (let needle = "## E1" in
     let n = String.length needle and h = String.length report in
     let rec scan i =
       i + n <= h && (String.sub report i n = needle || scan (i + 1))
     in
     scan 0)

let catalog_identical_across_jobs () =
  (* The Exec determinism contract, end to end: a catalog experiment
     rendered at jobs=2 must be byte-identical to jobs=1.  a2 and b1
     are the quick runs that fan more than one seed through
     [Ratio.cells] rows. *)
  let before = Exec.jobs () in
  Fun.protect
    ~finally:(fun () -> Exec.set_jobs before)
    (fun () ->
      let report jobs id =
        Exec.set_jobs jobs;
        Experiments.Catalog.result_to_markdown
          (Experiments.Catalog.run ~quick:true id)
      in
      List.iter
        (fun id ->
          Alcotest.(check string)
            (id ^ " byte-identical report")
            (report 1 id) (report 2 id))
        [ "e2"; "a2"; "b1" ])

let catalog_seed_changes_nothing_structural () =
  let a = Experiments.Catalog.run ~seed:1 ~quick:true "e2" in
  let b = Experiments.Catalog.run ~seed:2 ~quick:true "e2" in
  Alcotest.(check int) "same table count"
    (List.length a.Experiments.Catalog.tables)
    (List.length b.Experiments.Catalog.tables)

let () =
  Alcotest.run "experiments"
    [
      ( "ratio",
        [
          Alcotest.test_case "summarize single" `Quick summarize_single;
          Alcotest.test_case "summarize many" `Quick summarize_many;
          Alcotest.test_case "summarize empty" `Quick summarize_empty;
          Alcotest.test_case "cost_pair validates" `Quick cost_pair_validates;
          Alcotest.test_case "vs line DP >= 1" `Quick vs_line_dp_at_least_one;
          Alcotest.test_case "reproducible" `Quick vs_measurement_reproducible;
          QCheck_alcotest.to_alcotest qcheck_cells_match_old_fold;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "recovers exponent" `Quick sweep_recovers_exponent;
          Alcotest.test_case "table shape" `Quick sweep_table_shape;
          Alcotest.test_case "no fit message" `Quick sweep_slope_line_no_fit;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "ids" `Quick catalog_ids;
          Alcotest.test_case "unknown id" `Quick catalog_unknown_id;
          Alcotest.test_case "e1 quick" `Quick (catalog_quick_fast "e1");
          Alcotest.test_case "e2 quick" `Quick (catalog_quick_fast "e2");
          Alcotest.test_case "e3 quick" `Quick (catalog_quick_fast "e3");
          Alcotest.test_case "e7 quick" `Quick (catalog_quick_fast "e7");
          Alcotest.test_case "e9 quick" `Quick (catalog_quick_fast "e9");
          Alcotest.test_case "e4 quick" `Slow (catalog_quick_fast "e4");
          Alcotest.test_case "e5 quick" `Slow (catalog_quick_fast "e5");
          Alcotest.test_case "e6 quick" `Slow (catalog_quick_fast "e6");
          Alcotest.test_case "e8 quick" `Slow (catalog_quick_fast "e8");
          Alcotest.test_case "e10 quick" `Slow (catalog_quick_fast "e10");
          Alcotest.test_case "t1 quick" `Slow (catalog_quick_fast "t1");
          Alcotest.test_case "a1 quick" `Slow (catalog_quick_fast "a1");
          Alcotest.test_case "a2 quick" `Slow (catalog_quick_fast "a2");
          Alcotest.test_case "x1 quick" `Slow (catalog_quick_fast "x1");
          Alcotest.test_case "b1 quick" `Slow (catalog_quick_fast "b1");
          Alcotest.test_case "f1 quick" `Slow (catalog_quick_fast "f1");
          Alcotest.test_case "e1 findings" `Quick catalog_e1_grows;
          Alcotest.test_case "e9 invariant" `Quick catalog_e9_invariant_holds;
          Alcotest.test_case "identical across jobs" `Quick
            catalog_identical_across_jobs;
          Alcotest.test_case "structure seed-stable" `Quick
            catalog_seed_changes_nothing_structural;
          Alcotest.test_case "markdown report" `Quick markdown_report_renders;
        ] );
    ]
