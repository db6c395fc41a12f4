(* Benchmark and reproduction harness.

   Usage:
     dune exec bench/main.exe                 -- everything (E1..E9, T1, micro)
     dune exec bench/main.exe -- e1 e4        -- selected experiments
     dune exec bench/main.exe -- micro        -- microbenchmarks only
     dune exec bench/main.exe -- --quick ...  -- reduced horizons/seeds
     dune exec bench/main.exe -- --jobs 4 ... -- worker domains for sweeps
     dune exec bench/main.exe -- parallel     -- jobs=1 vs jobs=N comparison
                                                 (JSON to BENCH_parallel.json,
                                                  or --parallel-out PATH)
     dune exec bench/main.exe -- hotpath      -- allocation-free kernels and
                                                 warm-start vs seed replicas
                                                 (JSON to BENCH_hotpath.json,
                                                  or --hotpath-out PATH;
                                                  golden file override with
                                                  --golden PATH)
     dune exec bench/main.exe -- solver       -- packed Line_dp vs the
                                                 pre-packing replica and the
                                                 OPT cache, with byte-identity
                                                 verdicts (JSON to
                                                 BENCH_solver.json, or
                                                 --solver-out PATH)
     dune exec bench/main.exe -- network      -- CSR graphs + unboxed Dijkstra
                                                 + flat-metric PM optima vs the
                                                 pre-CSR replica, with
                                                 byte-identity verdicts (JSON
                                                 to BENCH_network.json, or
                                                 --network-out PATH)
     dune exec bench/main.exe -- serve        -- sharded session daemon under
                                                 an open-world schedule at
                                                 10k/100k live sessions plus a
                                                 1M-live streaming point, gated
                                                 on serve = engine,
                                                 jobs1 = jobsN and
                                                 stream = materialized
                                                 byte-identity (JSON to
                                                 BENCH_serve.json, or
                                                 --serve-out PATH)
     dune exec bench/main.exe -- multicore    -- the same serve schedule and
                                                 experiment sweep at
                                                 jobs=1/2/4/8, identity-gated
                                                 (JSON to BENCH_multicore.json,
                                                 or --multicore-out PATH)
     dune exec bench/main.exe -- fleet        -- packed fleet engine vs boxed
                                                 at k = 10/100/1000 and the
                                                 min-cost-flow relaxation OPT
                                                 vs brute force + the OPT
                                                 cache, gated on
                                                 packed = boxed,
                                                 flow = brute,
                                                 cached = cold and
                                                 jobs1 = jobsN byte-identity
                                                 (JSON to BENCH_fleet.json,
                                                 or --fleet-out PATH)

   Each experiment regenerates one reproduction target (a theorem of the
   paper; see DESIGN.md §4 and EXPERIMENTS.md) and prints its tables.
   The micro suite times the primitive operations with Bechamel. *)

module MS = Mobile_server

(* ------------------------------------------------------------------ *)
(* Microbenchmarks.                                                    *)

let micro_tests () =
  let open Bechamel in
  let rng = Prng.Stream.named ~name:"bench-micro" ~seed:1 in
  let points n =
    Array.init n (fun _ ->
        Geometry.Vec.make2
          (Prng.Dist.uniform rng ~lo:(-10.0) ~hi:10.0)
          (Prng.Dist.uniform rng ~lo:(-10.0) ~hi:10.0))
  in
  let pts16 = points 16 and pts128 = points 128 in
  let server = Geometry.Vec.zero 2 in
  let config = MS.Config.make ~d_factor:4.0 ~delta:0.5 () in
  let cluster_inst =
    Workloads.Clusters.generate ~dim:2 ~t:256
      (Prng.Stream.named ~name:"bench-inst" ~seed:2)
  in
  let line_inst =
    Workloads.Clusters.generate ~r_min:2 ~r_max:2 ~arena:10.0 ~dim:1 ~t:128
      (Prng.Stream.named ~name:"bench-line" ~seed:3)
  in
  [
    Test.make ~name:"geometric-median-16"
      (Staged.stage (fun () ->
           ignore (Geometry.Median.weiszfeld ~tie_break:server pts16)));
    Test.make ~name:"geometric-median-128"
      (Staged.stage (fun () ->
           ignore (Geometry.Median.weiszfeld ~tie_break:server pts128)));
    Test.make ~name:"mtc-decision-16"
      (Staged.stage (fun () ->
           ignore (MS.Mtc.target config ~server pts16)));
    Test.make ~name:"engine-run-T256"
      (Staged.stage (fun () ->
           ignore (MS.Engine.total_cost config MS.Mtc.algorithm cluster_inst)));
    Test.make ~name:"line-dp-T128"
      (Staged.stage (fun () ->
           ignore (Offline.Line_dp.optimum ~grid_per_m:32 config line_inst)));
    Test.make ~name:"convex-opt-T64"
      (Staged.stage
         (let small =
            Workloads.Clusters.generate ~dim:2 ~t:64
              (Prng.Stream.named ~name:"bench-cvx" ~seed:4)
          in
          fun () ->
            ignore
              (Offline.Convex_opt.optimum ~max_iter:20 ~sweeps:3 config small)));
    Test.make ~name:"thm2-generate"
      (Staged.stage (fun () ->
           ignore
             (Adversary.Thm2.generate ~cycles:2 ~dim:1 ~r_min:1 ~r_max:2
                config
                (Prng.Stream.named ~name:"bench-thm2" ~seed:5))));
    Test.make ~name:"workload-clusters-T256"
      (Staged.stage (fun () ->
           ignore
             (Workloads.Clusters.generate ~dim:2 ~t:256
                (Prng.Stream.named ~name:"bench-wl" ~seed:6))));
  ]

let run_micro () =
  let open Bechamel in
  print_endline "\n=== MICRO: primitive-operation timings (Bechamel) ===\n";
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true
      ~predictors:[| Measure.run |]
  in
  let rows =
    List.map
      (fun test ->
        let results = Benchmark.all cfg instances (Test.make_grouped
            ~name:"g" [ test ]) in
        let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
        Hashtbl.fold
          (fun name result acc ->
            let name =
              match String.index_opt name '/' with
              | Some i -> String.sub name (i + 1) (String.length name - i - 1)
              | None -> name
            in
            let ns =
              match Analyze.OLS.estimates result with
              | Some (t :: _) -> t
              | _ -> nan
            in
            [ name; Tables.cell (ns /. 1000.0); Tables.cell ns ] :: acc)
          analyzed [])
      (micro_tests ())
    |> List.concat
  in
  Tables.print
    (Tables.create
       ~aligns:[ Tables.Left; Tables.Right; Tables.Right ]
       ~header:[ "operation"; "us/run"; "ns/run" ]
       rows)

(* ------------------------------------------------------------------ *)
(* Hot-path benchmark: allocation-free kernels and the warm-started
   Weiszfeld iteration, priced against faithful replicas of the seed
   (allocating, cold-start) implementations, plus the byte-identity
   checks that prove the rewrite changed no science.  JSON lands in
   BENCH_hotpath.json (or --hotpath-out PATH). *)

(* Replicas of the pre-optimization kernels: the exact arithmetic of
   the seed code, materializing a difference vector per distance and
   restarting Weiszfeld from the centroid.  Kept here (not in lib/) so
   the comparison target cannot drift into production use. *)
module Seed_replica = struct
  module V = Geometry.Vec

  let dist u v = V.norm (V.sub u v)

  (* The seed's Vardi–Zhang loop for the general-position case (the
     1-D/collinear/degenerate branches are shared with the current code
     and are not on the hot path). *)
  let weiszfeld ?(eps = 1e-10) ?(max_iter = 200) points =
    let n = Array.length points in
    let d = V.dim points.(0) in
    if n = 1 then V.copy points.(0)
    else begin
      let origin = points.(0) in
      let spread =
        Array.fold_left (fun acc p -> Float.max acc (dist origin p)) 0.0 points
      in
      if spread < 1e-300 then V.copy origin
      else begin
        let y = ref (V.centroid points) in
        let tol = Float.max eps (eps *. spread) in
        let iter = ref 0 in
        let continue_ = ref true in
        while !continue_ && !iter < max_iter do
          incr iter;
          let anchor_eps = 1e-13 *. spread in
          let multiplicity = ref 0 in
          let inv_sum = ref 0.0 in
          let weighted = Array.make d 0.0 in
          let resultant = Array.make d 0.0 in
          Array.iter
            (fun p ->
              let dist = dist !y p in
              if dist <= anchor_eps then incr multiplicity
              else begin
                let w = 1.0 /. dist in
                inv_sum := !inv_sum +. w;
                for i = 0 to d - 1 do
                  weighted.(i) <- weighted.(i) +. (w *. p.(i));
                  resultant.(i) <- resultant.(i) +. (w *. (p.(i) -. !y.(i)))
                done
              end)
            points;
          if Float.equal !inv_sum 0.0 then continue_ := false
          else begin
            let t = Array.map (fun w -> w /. !inv_sum) weighted in
            let next =
              if !multiplicity = 0 then t
              else begin
                let r = V.norm resultant in
                let k = float_of_int !multiplicity in
                if r <= k then begin
                  continue_ := false;
                  V.copy !y
                end
                else
                  let beta = k /. r in
                  V.add (V.scale (1.0 -. beta) t) (V.scale beta !y)
              end
            in
            if dist next !y <= tol then continue_ := false;
            y := next
          end
        done;
        !y
      end
    end

  (* MtC with the replica median: times a full engine round on the seed
     kernels inside the current binary.  Degenerate rounds (fewer than
     three requests) share the current code in both runs, so the
     comparison isolates the hot path. *)
  let center ~server requests =
    if Array.length requests < 3 then Geometry.Median.center ~server requests
    else weiszfeld requests

  let algorithm = MS.Mtc.with_center ~name:"mtc-seed-replica" center
end

(* Seconds per call: the median of [min 5 repeat] samples (the upper
   middle one for an even count), which share the [repeat] timed calls
   as evenly as they divide, after one warm-up call outside the clock.
   The median drops a slow stretch within one row's calls; it does not
   remove the host's drift between runs, so compare records from
   alternated runs. *)
let time_per ~repeat f =
  ignore (Sys.opaque_identity (f ()));
  let samples = Stdlib.min 5 repeat in
  let per_call =
    Array.init samples (fun k ->
        let calls =
          (repeat / samples) + if k < repeat mod samples then 1 else 0
        in
        let t0 = Unix.gettimeofday () in
        for _ = 1 to calls do
          ignore (Sys.opaque_identity (f ()))
        done;
        (Unix.gettimeofday () -. t0) /. float_of_int calls)
  in
  Array.sort Float.compare per_call;
  per_call.(samples / 2)

(* The rule above, stated in every record whose rows it times. *)
let timing_json =
  "\"timing\": \"seconds per call = median of min(5, calls) samples that \
   share the row's calls evenly (upper middle for an even count)\""

(* The machine a bench record was measured on, as one JSON field. *)
let machine_json () =
  Printf.sprintf
    "\"machine\": {\"recommended_domain_count\": %d, \"ocaml_version\": \"%s\", \
     \"flambda\": %b}"
    (Domain.recommended_domain_count ()) Sys.ocaml_version Build_info.flambda

let run_hotpath ~quick ~out ~golden () =
  print_endline "\n=== HOTPATH: kernels, warm-started median, identity ===\n";
  let rng = Prng.Stream.named ~name:"bench-hotpath" ~seed:1 in
  let point () =
    Geometry.Vec.make2
      (Prng.Dist.uniform rng ~lo:(-10.0) ~hi:10.0)
      (Prng.Dist.uniform rng ~lo:(-10.0) ~hi:10.0)
  in
  (* --- kernel micro: fused vs allocating distance ----------------- *)
  let pairs = Array.init 512 (fun _ -> (point (), point ())) in
  let kernel_reps = if quick then 200 else 2000 in
  let sum_with dist () =
    Array.fold_left (fun acc (u, v) -> acc +. dist u v) 0.0 pairs
  in
  let per_call secs = secs /. float_of_int (Array.length pairs) *. 1e9 in
  let dist_alloc_ns =
    per_call (time_per ~repeat:kernel_reps (sum_with Seed_replica.dist))
  in
  let dist_fused_ns =
    per_call (time_per ~repeat:kernel_reps (sum_with Geometry.Vec.dist))
  in
  (* --- warm-started median on drifting request sets ---------------- *)
  (* MtC's situation each round: the same requests, each nudged a
     little, so the previous median is an excellent starting iterate.
     The set is a tight cluster plus far outliers — the heavy-tailed
     shape where the centroid (cold start) lands far from the median
     and the cold iteration pays for the trip every round. *)
  let rounds = if quick then 60 else 400 in
  let n_pts = 16 in
  let n_outliers = 4 in
  let sets =
    let current =
      Array.init n_pts (fun i ->
          if i < n_pts - n_outliers then
            Geometry.Vec.make2
              (Prng.Dist.gaussian rng ~mu:0.0 ~sigma:0.3)
              (Prng.Dist.gaussian rng ~mu:0.0 ~sigma:0.3)
          else
            Geometry.Vec.make2
              (Prng.Dist.uniform rng ~lo:40.0 ~hi:60.0)
              (Prng.Dist.uniform rng ~lo:(-60.0) ~hi:60.0))
    in
    Array.init rounds (fun _ ->
        let snapshot = Array.map Geometry.Vec.copy current in
        Array.iteri
          (fun i p ->
            current.(i) <-
              Geometry.Vec.make2
                (Geometry.Vec.x p +. Prng.Dist.gaussian rng ~mu:0.0 ~sigma:0.05)
                (Geometry.Vec.y p +. Prng.Dist.gaussian rng ~mu:0.0 ~sigma:0.05))
          current;
        snapshot)
  in
  let median_reps = if quick then 3 else 10 in
  let cold_total =
    time_per ~repeat:median_reps (fun () ->
        Array.iter (fun pts -> ignore (Geometry.Median.weiszfeld pts)) sets)
  in
  let warm_total =
    time_per ~repeat:median_reps (fun () ->
        let prev = ref None in
        Array.iter
          (fun pts ->
            let m = Geometry.Median.weiszfeld ?init:!prev pts in
            prev := Some m)
          sets)
  in
  let seed_total =
    time_per ~repeat:median_reps (fun () ->
        Array.iter (fun pts -> ignore (Seed_replica.weiszfeld pts)) sets)
  in
  let median_seed_us = seed_total /. float_of_int rounds *. 1e6 in
  let median_cold_us = cold_total /. float_of_int rounds *. 1e6 in
  let median_warm_us = warm_total /. float_of_int rounds *. 1e6 in
  (* The headline: the PR's total effect on the median hot path (seed
     kernels + cold start, versus fused kernels + warm start).  The
     same-kernel warm-vs-cold ratio is reported separately; Weiszfeld
     converges linearly, so a closer start saves only a log-factor of
     iterations and that ratio is necessarily modest. *)
  let warm_speedup = median_seed_us /. median_warm_us in
  let warm_vs_cold = median_cold_us /. median_warm_us in
  (* Warm and cold runs must land on the same median (within the
     iteration tolerance scaled by the point spread). *)
  let warm_max_dev =
    let prev = ref None in
    Array.fold_left
      (fun acc pts ->
        let cold = Geometry.Median.weiszfeld pts in
        let warm = Geometry.Median.weiszfeld ?init:!prev pts in
        prev := Some warm;
        Float.max acc (Geometry.Vec.dist cold warm))
      0.0 sets
  in
  (* --- full engine rounds: seed-replica kernels vs current ---------- *)
  let config = MS.Config.make ~d_factor:4.0 ~delta:0.5 () in
  let inst =
    Workloads.Clusters.generate ~dim:2 ~t:256
      (Prng.Stream.named ~name:"bench-inst" ~seed:2)
  in
  let t_len = MS.Instance.length inst in
  let engine_reps = if quick then 3 else 10 in
  let engine_seed_us =
    time_per ~repeat:engine_reps (fun () ->
        MS.Engine.total_cost config Seed_replica.algorithm inst)
    /. float_of_int t_len *. 1e6
  in
  let engine_opt_us =
    time_per ~repeat:engine_reps (fun () ->
        MS.Engine.total_cost config MS.Mtc.algorithm inst)
    /. float_of_int t_len *. 1e6
  in
  let warm_config = MS.Config.with_warm_start config true in
  let engine_warm_us =
    time_per ~repeat:engine_reps (fun () ->
        MS.Engine.total_cost warm_config MS.Mtc.algorithm inst)
    /. float_of_int t_len *. 1e6
  in
  let cost_seed = MS.Engine.total_cost config Seed_replica.algorithm inst in
  let cost_opt = MS.Engine.total_cost config MS.Mtc.algorithm inst in
  let cost_warm = MS.Engine.total_cost warm_config MS.Mtc.algorithm inst in
  let rel a b = Float.abs (a -. b) /. Float.max 1.0 (Float.abs b) in
  let engine_cost_rel = rel cost_seed cost_opt in
  let warm_cost_rel = rel cost_warm cost_opt in
  (* --- frame codec: one 2-D step frame with r = 3, both ways --------- *)
  let module Frame = Serve.Frame in
  let step_request =
    Frame.Step { session = 7L; requests = Array.init 3 (fun _ -> point ()) }
  in
  let stepped_reply =
    Frame.Stepped
      { session = 7L; position = point (); move = 0.5; service = 2.25;
        clamped = false }
  in
  let request_frame = Frame.encode_request step_request in
  let reply_frame = Frame.encode_reply stepped_reply in
  let codec_reps = if quick then 20_000 else 200_000 in
  (* ns and minor words per call, over [codec_reps] calls. *)
  let per_frame f =
    let ns = time_per ~repeat:codec_reps f *. 1e9 in
    let w0 = Gc.minor_words () in
    for _ = 1 to codec_reps do
      ignore (Sys.opaque_identity (f ()))
    done;
    (ns, (Gc.minor_words () -. w0) /. float_of_int codec_reps)
  in
  let codec_rows =
    [
      ( "encode_request",
        per_frame (fun () -> Frame.encode_request step_request) );
      ( "decode_request",
        per_frame (fun () -> Frame.decode_request request_frame) );
      ("encode_reply", per_frame (fun () -> Frame.encode_reply stepped_reply));
      ("decode_reply", per_frame (fun () -> Frame.decode_reply reply_frame));
    ]
  in
  (* --- byte-identity: the science did not move --------------------- *)
  let golden_expected =
    match open_in golden with
    | exception Sys_error msg ->
      Printf.eprintf "hotpath: cannot read golden file %s (%s)\n" golden msg;
      None
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          Some (really_input_string ic (in_channel_length ic)))
  in
  let identity_golden =
    match golden_expected with
    | None -> false
    | Some expected ->
      String.equal expected (Experiments.Golden.trajectory_string ())
  in
  (* Default-config catalog report, sequential vs parallel harness. *)
  let report_at jobs =
    Exec.set_jobs jobs;
    Experiments.Catalog.result_to_markdown
      (Experiments.Catalog.run ~quick:true "e1")
  in
  let saved_jobs = Exec.jobs () in
  let report_seq = report_at 1 in
  let report_par = report_at 2 in
  Exec.set_jobs saved_jobs;
  let identity_report = String.equal report_seq report_par in
  (* --- render ------------------------------------------------------ *)
  Tables.print
    ~title:"hot-path timings (lower is better)"
    (Tables.create
       ~aligns:[ Tables.Left; Tables.Right; Tables.Right; Tables.Right ]
       ~header:[ "operation"; "seed / cold"; "optimized / warm"; "speedup" ]
       [
         [ "Vec.dist (ns)"; Tables.cell dist_alloc_ns;
           Tables.cell dist_fused_ns;
           Tables.cell (dist_alloc_ns /. dist_fused_ns) ];
         [ Printf.sprintf "median, %d pts cold (us)" n_pts;
           Tables.cell median_seed_us; Tables.cell median_cold_us;
           Tables.cell (median_seed_us /. median_cold_us) ];
         [ Printf.sprintf "median, %d pts warm (us)" n_pts;
           Tables.cell median_seed_us; Tables.cell median_warm_us;
           Tables.cell warm_speedup ];
         [ "engine round (us)"; Tables.cell engine_seed_us;
           Tables.cell engine_opt_us;
           Tables.cell (engine_seed_us /. engine_opt_us) ];
         [ "engine round, warm (us)"; Tables.cell engine_seed_us;
           Tables.cell engine_warm_us;
           Tables.cell (engine_seed_us /. engine_warm_us) ];
       ]);
  Tables.print
    ~title:"frame codec, 2-D step frame, r = 3 (lower is better)"
    (Tables.create
       ~aligns:[ Tables.Left; Tables.Right; Tables.Right ]
       ~header:[ "call"; "ns/frame"; "minor words/frame" ]
       (List.map
          (fun (name, (ns, words)) ->
            [ "Frame." ^ name; Tables.cell ns; Tables.cell words ])
          codec_rows));
  Printf.printf "warm-vs-cold median deviation : %.3g (tolerance-level)\n"
    warm_max_dev;
  Printf.printf "engine cost drift seed->opt   : %.3g (must be 0)\n"
    engine_cost_rel;
  Printf.printf "engine cost drift warm        : %.3g (tolerance-level)\n"
    warm_cost_rel;
  Printf.printf "golden trajectory identical   : %b\n" identity_golden;
  Printf.printf "e1 report jobs1 = jobs2       : %b\n%!" identity_report;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"msp-bench-hotpath-v1\",\n";
  Buffer.add_string buf (Printf.sprintf "  %s,\n" (machine_json ()));
  Buffer.add_string buf (Printf.sprintf "  %s,\n" timing_json);
  Buffer.add_string buf (Printf.sprintf "  \"quick\": %b,\n" quick);
  Buffer.add_string buf
    (Printf.sprintf "  \"kernel_dist_alloc_ns\": %.6g,\n" dist_alloc_ns);
  Buffer.add_string buf
    (Printf.sprintf "  \"kernel_dist_fused_ns\": %.6g,\n" dist_fused_ns);
  Buffer.add_string buf
    (Printf.sprintf "  \"kernel_dist_speedup\": %.6g,\n"
       (dist_alloc_ns /. dist_fused_ns));
  Buffer.add_string buf
    (Printf.sprintf "  \"median_seed_us\": %.6g,\n" median_seed_us);
  Buffer.add_string buf
    (Printf.sprintf "  \"median_cold_us\": %.6g,\n" median_cold_us);
  Buffer.add_string buf
    (Printf.sprintf "  \"median_warm_us\": %.6g,\n" median_warm_us);
  Buffer.add_string buf
    (Printf.sprintf "  \"median_warm_speedup\": %.6g,\n" warm_speedup);
  Buffer.add_string buf
    (Printf.sprintf "  \"median_warm_vs_cold_same_kernel\": %.6g,\n"
       warm_vs_cold);
  Buffer.add_string buf
    (Printf.sprintf "  \"median_warm_max_deviation\": %.6g,\n" warm_max_dev);
  Buffer.add_string buf
    (Printf.sprintf "  \"engine_round_seed_us\": %.6g,\n" engine_seed_us);
  Buffer.add_string buf
    (Printf.sprintf "  \"engine_round_opt_us\": %.6g,\n" engine_opt_us);
  Buffer.add_string buf
    (Printf.sprintf "  \"engine_round_warm_us\": %.6g,\n" engine_warm_us);
  Buffer.add_string buf
    (Printf.sprintf "  \"engine_round_speedup\": %.6g,\n"
       (engine_seed_us /. engine_opt_us));
  Buffer.add_string buf
    (Printf.sprintf "  \"engine_cost_rel_drift\": %.6g,\n" engine_cost_rel);
  Buffer.add_string buf
    (Printf.sprintf "  \"engine_warm_cost_rel_drift\": %.6g,\n" warm_cost_rel);
  List.iter
    (fun (name, (ns, words)) ->
      Buffer.add_string buf
        (Printf.sprintf "  \"codec_%s_ns\": %.6g,\n" name ns);
      Buffer.add_string buf
        (Printf.sprintf "  \"codec_%s_minor_words\": %.6g,\n" name words))
    codec_rows;
  Buffer.add_string buf
    (Printf.sprintf "  \"identity_golden_trajectory\": %b,\n" identity_golden);
  Buffer.add_string buf
    (Printf.sprintf "  \"identity_report_jobs1_vs_jobs2\": %b\n"
       identity_report);
  Buffer.add_string buf "}\n";
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents buf));
  Printf.printf "hotpath report written to %s\n" out;
  if not (identity_golden && identity_report) then begin
    prerr_endline
      "FATAL: hot-path rewrite is not byte-identical to the baseline";
    exit 1
  end;
  if engine_cost_rel > 0.0 then begin
    prerr_endline
      "FATAL: seed-replica and optimized engine runs disagree on cost";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Offline-solver benchmark: the packed Line_dp core and the OPT memo
   cache, priced against a faithful replica of the pre-packing solver
   (per-round allocations, boxed request access), plus the identity
   checks — packed vs boxed, cached vs uncached, jobs=1 vs jobs=2 —
   that prove the speedups changed no science.  JSON lands in
   BENCH_solver.json (or --solver-out PATH). *)

(* Replica of the pre-packing Line_dp: identical arithmetic, but the
   service table, sorted-request scratch and deques are allocated fresh
   every round and requests are read through boxed vectors.  Kept here
   (not in lib/) so the comparison target cannot drift into production
   use. *)
module Line_dp_replica = struct
  module Config = MS.Config
  module Instance = MS.Instance
  module Variant = MS.Variant

  let service_on_grid grid requests =
    let g = Array.length grid in
    let out = Array.make g 0.0 in
    let r = Array.length requests in
    if r > 0 then begin
      let sorted = Array.map (fun v -> v.(0)) requests in
      Array.sort Float.compare sorted;
      let prefix = Array.make (r + 1) 0.0 in
      for i = 0 to r - 1 do
        prefix.(i + 1) <- prefix.(i) +. sorted.(i)
      done;
      let total = prefix.(r) in
      let j = ref 0 in
      for k = 0 to g - 1 do
        let x = grid.(k) in
        while !j < r && sorted.(!j) <= x do incr j done;
        let below = float_of_int !j and sum_below = prefix.(!j) in
        let above = float_of_int (r - !j)
        and sum_above = total -. prefix.(!j) in
        out.(k) <- (below *. x) -. sum_below +. (sum_above -. (above *. x))
      done
    end;
    out

  let window_min_left ~w key out_val out_idx =
    let g = Array.length key in
    let deque = Array.make g 0 in
    let head = ref 0 and tail = ref 0 in
    for k = 0 to g - 1 do
      while !head < !tail && deque.(!head) < k - w do incr head done;
      while !head < !tail && key.(deque.(!tail - 1)) >= key.(k) do
        decr tail
      done;
      deque.(!tail) <- k;
      incr tail;
      let j = deque.(!head) in
      out_val.(k) <- key.(j);
      out_idx.(k) <- j
    done

  let optimum ?(grid_per_m = 64) (config : Config.t) inst =
    if Instance.dim inst <> 1 then
      invalid_arg "Line_dp.solve: instance is not 1-dimensional";
    let t_len = Instance.length inst in
    if t_len = 0 then invalid_arg "Line_dp.solve: empty instance";
    let m = Config.offline_limit config in
    let d_factor = config.Config.d_factor in
    let start = inst.Instance.start.(0) in
    let lo = ref start and hi = ref start in
    Array.iter
      (Array.iter (fun v ->
           if v.(0) < !lo then lo := v.(0);
           if v.(0) > !hi then hi := v.(0)))
      inst.Instance.steps;
    let width = !hi -. !lo in
    let max_cells = 40_000_000 in
    let max_grid = Stdlib.max 64 (Stdlib.min 60_000 (max_cells / t_len)) in
    let pitch =
      let by_m = m /. float_of_int (Stdlib.min grid_per_m 126) in
      let by_width =
        if width > 0.0 then width /. float_of_int max_grid else by_m
      in
      Float.max by_m by_width
    in
    let k_lo = -(int_of_float (Float.ceil ((start -. !lo) /. pitch))) in
    let k_hi = int_of_float (Float.ceil ((!hi -. start) /. pitch)) in
    let g = k_hi - k_lo + 1 in
    let grid =
      Array.init g (fun i -> start +. (float_of_int (k_lo + i) *. pitch))
    in
    let start_idx = -k_lo in
    let w = int_of_float (Float.floor ((m /. pitch) +. 1e-9)) in
    if w < 1 then invalid_arg "Line_dp.solve: grid pitch exceeds m";
    let inf = infinity in
    let parents = Bytes.make (t_len * g) '\000' in
    let value = Array.make g inf in
    value.(start_idx) <- 0.0;
    let key = Array.make g 0.0 in
    let left_val = Array.make g 0.0 and left_idx = Array.make g 0 in
    let right_val = Array.make g 0.0 and right_idx = Array.make g 0 in
    let rev_val = Array.make g 0.0 and rev_idx = Array.make g 0 in
    let next = Array.make g 0.0 in
    let serve_first =
      Variant.equal config.Config.variant Variant.Serve_first
    in
    for t = 0 to t_len - 1 do
      let service = service_on_grid grid inst.Instance.steps.(t) in
      let base j =
        if serve_first then value.(j) +. service.(j) else value.(j)
      in
      for j = 0 to g - 1 do
        key.(j) <- base j -. (d_factor *. grid.(j))
      done;
      window_min_left ~w key left_val left_idx;
      for j = 0 to g - 1 do
        key.(j) <- base (g - 1 - j) +. (d_factor *. grid.(g - 1 - j))
      done;
      window_min_left ~w key rev_val rev_idx;
      for k = 0 to g - 1 do
        right_val.(k) <- rev_val.(g - 1 - k);
        right_idx.(k) <- g - 1 - rev_idx.(g - 1 - k)
      done;
      for k = 0 to g - 1 do
        let x = grid.(k) in
        let from_left = left_val.(k) +. (d_factor *. x) in
        let from_right = right_val.(k) -. (d_factor *. x) in
        let best_val, best_j =
          if from_left <= from_right then (from_left, left_idx.(k))
          else (from_right, right_idx.(k))
        in
        next.(k) <-
          (if Float.is_finite best_val then
             if serve_first then best_val else best_val +. service.(k)
           else inf);
        Bytes.set parents ((t * g) + k) (Char.chr (best_j - k + 128))
      done;
      Array.blit next 0 value 0 g
    done;
    let best_k = ref 0 in
    for k = 1 to g - 1 do
      if value.(k) < value.(!best_k) then best_k := k
    done;
    value.(!best_k)
end

let run_solver ~quick ~out () =
  print_endline "\n=== SOLVER: packed Line_dp, OPT cache, identity ===\n";
  let bit_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let config = MS.Config.make ~d_factor:4.0 ~delta:0.5 () in
  let line_gen ~t rng =
    Workloads.Clusters.generate ~r_min:2 ~r_max:2 ~arena:10.0 ~dim:1 ~t rng
  in
  (* --- cold single solve: replica vs packed core ------------------- *)
  let solve_t = if quick then 512 else 2000 in
  let inst =
    line_gen ~t:solve_t (Prng.Stream.named ~name:"bench-solver" ~seed:1)
  in
  let solve_reps = if quick then 5 else 15 in
  let seed_ms =
    time_per ~repeat:solve_reps (fun () -> Line_dp_replica.optimum config inst)
    *. 1e3
  in
  let packed_ms =
    time_per ~repeat:solve_reps (fun () ->
        Offline.Line_dp.optimum config inst)
    *. 1e3
  in
  let cold_speedup = seed_ms /. packed_ms in
  (* Identity: replica, boxed entry and packed core agree bit for bit
     across several instances. *)
  let identity_packed_vs_boxed =
    let ok = ref true in
    for seed = 1 to 8 do
      let inst =
        line_gen ~t:(if quick then 64 else 128)
          (Prng.Stream.named ~name:"bench-solver-id" ~seed)
      in
      let replica = Line_dp_replica.optimum config inst in
      let boxed = Offline.Line_dp.optimum config inst in
      let packed =
        Offline.Line_dp.optimum_packed config (MS.Instance.pack inst)
      in
      if not (bit_eq replica boxed && bit_eq boxed packed) then ok := false
    done;
    !ok
  in
  (* --- cached sweep: cold vs warm, jobs=1 vs jobs=2 ----------------- *)
  let sweep_seeds = if quick then 6 else 16 in
  let sweep_t = if quick then 128 else 256 in
  let sweep () =
    Experiments.Ratio.vs_line_dp ~seeds:sweep_seeds ~base_seed:11
      ~name:"bench-opt-cache" config MS.Mtc.algorithm (line_gen ~t:sweep_t)
  in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let saved_jobs = Exec.jobs () in
  Exec.set_jobs 1;
  Offline.Opt_cache.clear ();
  Offline.Opt_cache.reset_stats ();
  let cold_s, sweep_cold = timed sweep in
  let warm_s, sweep_warm = timed sweep in
  let warm_speedup = cold_s /. warm_s in
  (* Uncached pass: the cache bypassed entirely, same jobs count. *)
  Offline.Opt_cache.set_enabled false;
  let _, sweep_uncached = timed sweep in
  Offline.Opt_cache.set_enabled true;
  (* jobs=2 from a cold cache, then warm. *)
  Exec.set_jobs 2;
  Offline.Opt_cache.clear ();
  let _, sweep_j2_cold = timed sweep in
  let _, sweep_j2_warm = timed sweep in
  Exec.set_jobs saved_jobs;
  let ratios s = s.Experiments.Ratio.ratios in
  let all_bit_eq a b =
    Array.length a = Array.length b && Array.for_all2 bit_eq a b
  in
  let identity_cached_vs_uncached =
    all_bit_eq (ratios sweep_cold) (ratios sweep_warm)
    && all_bit_eq (ratios sweep_cold) (ratios sweep_uncached)
  in
  let identity_jobs1_vs_jobs2 =
    all_bit_eq (ratios sweep_cold) (ratios sweep_j2_cold)
    && all_bit_eq (ratios sweep_cold) (ratios sweep_j2_warm)
  in
  (* --- on-disk store round trip ------------------------------------ *)
  let disk_dir = Filename.concat "_build" ".msp-opt-cache" in
  let saved_dir = Offline.Opt_cache.disk_dir () in
  Offline.Opt_cache.set_disk_dir (Some disk_dir);
  let small =
    line_gen ~t:32 (Prng.Stream.named ~name:"bench-solver-disk" ~seed:7)
  in
  let packed_small = MS.Instance.pack small in
  Offline.Opt_cache.clear ();
  let from_solve = Offline.Opt_cache.line_dp config packed_small in
  Offline.Opt_cache.clear ();
  let before_disk = Offline.Opt_cache.stats () in
  let from_disk = Offline.Opt_cache.line_dp config packed_small in
  let after_disk = Offline.Opt_cache.stats () in
  Offline.Opt_cache.set_disk_dir saved_dir;
  let identity_disk_roundtrip =
    bit_eq from_solve from_disk
    && after_disk.Offline.Opt_cache.disk_hits
       > before_disk.Offline.Opt_cache.disk_hits
  in
  let stats = Offline.Opt_cache.stats () in
  (* --- render ------------------------------------------------------ *)
  Tables.print
    ~title:"offline-solver timings (lower is better)"
    (Tables.create
       ~aligns:[ Tables.Left; Tables.Right; Tables.Right; Tables.Right ]
       ~header:[ "operation"; "seed / cold"; "packed / warm"; "speedup" ]
       [
         [ Printf.sprintf "line-dp solve, T=%d (ms)" solve_t;
           Tables.cell seed_ms; Tables.cell packed_ms;
           Tables.cell cold_speedup ];
         [ Printf.sprintf "ratio sweep, %d seeds (s)" sweep_seeds;
           Tables.cell cold_s; Tables.cell warm_s;
           Tables.cell warm_speedup ];
       ]);
  Printf.printf "cache stats                    : %d hits, %d misses, %d disk\n"
    stats.Offline.Opt_cache.hits stats.Offline.Opt_cache.misses
    stats.Offline.Opt_cache.disk_hits;
  Printf.printf "packed = boxed = seed replica  : %b\n" identity_packed_vs_boxed;
  Printf.printf "cached = uncached              : %b\n"
    identity_cached_vs_uncached;
  Printf.printf "jobs1 = jobs2 (cold and warm)  : %b\n" identity_jobs1_vs_jobs2;
  Printf.printf "disk round trip                : %b\n%!"
    identity_disk_roundtrip;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"msp-bench-solver-v1\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"quick\": %b,\n" quick);
  Buffer.add_string buf (Printf.sprintf "  %s,\n" (machine_json ()));
  Buffer.add_string buf (Printf.sprintf "  %s,\n" timing_json);
  Buffer.add_string buf
    (Printf.sprintf "  \"line_dp_rounds\": %d,\n" solve_t);
  Buffer.add_string buf
    (Printf.sprintf "  \"line_dp_seed_ms\": %.6g,\n" seed_ms);
  Buffer.add_string buf
    (Printf.sprintf "  \"line_dp_packed_ms\": %.6g,\n" packed_ms);
  Buffer.add_string buf
    (Printf.sprintf "  \"line_dp_cold_speedup\": %.6g,\n" cold_speedup);
  Buffer.add_string buf
    (Printf.sprintf "  \"sweep_seeds\": %d,\n" sweep_seeds);
  Buffer.add_string buf
    (Printf.sprintf "  \"sweep_cold_s\": %.6g,\n" cold_s);
  Buffer.add_string buf
    (Printf.sprintf "  \"sweep_warm_s\": %.6g,\n" warm_s);
  Buffer.add_string buf
    (Printf.sprintf "  \"cache_warm_speedup\": %.6g,\n" warm_speedup);
  Buffer.add_string buf
    (Printf.sprintf "  \"cache_hits\": %d,\n" stats.Offline.Opt_cache.hits);
  Buffer.add_string buf
    (Printf.sprintf "  \"cache_misses\": %d,\n"
       stats.Offline.Opt_cache.misses);
  Buffer.add_string buf
    (Printf.sprintf "  \"cache_disk_hits\": %d,\n"
       stats.Offline.Opt_cache.disk_hits);
  Buffer.add_string buf
    (Printf.sprintf "  \"identity_packed_vs_boxed\": %b,\n"
       identity_packed_vs_boxed);
  Buffer.add_string buf
    (Printf.sprintf "  \"identity_cached_vs_uncached\": %b,\n"
       identity_cached_vs_uncached);
  Buffer.add_string buf
    (Printf.sprintf "  \"identity_jobs1_vs_jobs2\": %b,\n"
       identity_jobs1_vs_jobs2);
  Buffer.add_string buf
    (Printf.sprintf "  \"identity_disk_roundtrip\": %b\n"
       identity_disk_roundtrip);
  Buffer.add_string buf "}\n";
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents buf));
  Printf.printf "solver report written to %s\n" out;
  if not (identity_packed_vs_boxed && identity_cached_vs_uncached
          && identity_jobs1_vs_jobs2 && identity_disk_roundtrip)
  then begin
    prerr_endline
      "FATAL: solver rewrite or cache is not byte-identical to the baseline";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Network benchmark: the CSR graph stack — unboxed Dijkstra into one
   flat metric table, lazy rows, and the flat-row Page Migration DP —
   priced against faithful replicas of the pre-CSR implementations
   (list adjacency, tuple-heap Dijkstra, per-pair distance calls in
   the DP), plus the identity checks that prove the rewrite changed no
   science.  JSON lands in BENCH_network.json (or --network-out). *)

(* Replicas of the pre-CSR graph/metric/DP code: the exact arithmetic
   and data structures of the seed network stack.  Kept here (not in
   lib/) so the comparison target cannot drift into production use. *)
module Network_replica = struct
  type graph = { n : int; adjacency : (int * float) list array }

  (* Rebuild the historical adjacency-list representation from the
     canonical edge list — cons per endpoint in edge order, exactly
     like the seed [Graph.of_edges]. *)
  let of_graph g =
    let n = Network.Graph.nodes g in
    let adjacency = Array.make n [] in
    List.iter
      (fun (u, v, len) ->
        adjacency.(u) <- (v, len) :: adjacency.(u);
        adjacency.(v) <- (u, len) :: adjacency.(v))
      (Network.Graph.edges g);
    { n; adjacency }

  (* The seed's binary heap on boxed (distance, node) pairs. *)
  module Heap = struct
    type t = {
      mutable data : (float * int) array;
      mutable size : int;
    }

    let create capacity =
      { data = Array.make (Stdlib.max 1 capacity) (0.0, 0); size = 0 }

    let swap h i j =
      let tmp = h.data.(i) in
      h.data.(i) <- h.data.(j);
      h.data.(j) <- tmp

    let rec sift_up h i =
      if i > 0 then begin
        let parent = (i - 1) / 2 in
        if fst h.data.(i) < fst h.data.(parent) then begin
          swap h i parent;
          sift_up h parent
        end
      end

    let rec sift_down h i =
      let left = (2 * i) + 1 and right = (2 * i) + 2 in
      let smallest = ref i in
      if left < h.size && fst h.data.(left) < fst h.data.(!smallest) then
        smallest := left;
      if right < h.size && fst h.data.(right) < fst h.data.(!smallest) then
        smallest := right;
      if !smallest <> i then begin
        swap h i !smallest;
        sift_down h !smallest
      end

    let push h entry =
      if h.size = Array.length h.data then begin
        let grown = Array.make (2 * h.size) (0.0, 0) in
        Array.blit h.data 0 grown 0 h.size;
        h.data <- grown
      end;
      h.data.(h.size) <- entry;
      h.size <- h.size + 1;
      sift_up h (h.size - 1)

    let pop h =
      if h.size = 0 then None
      else begin
        let top = h.data.(0) in
        h.size <- h.size - 1;
        if h.size > 0 then begin
          h.data.(0) <- h.data.(h.size);
          sift_down h 0
        end;
        Some top
      end
  end

  let single_source g s =
    let dist = Array.make g.n infinity in
    dist.(s) <- 0.0;
    let heap = Heap.create g.n in
    Heap.push heap (0.0, s);
    let rec loop () =
      match Heap.pop heap with
      | None -> ()
      | Some (d, u) ->
        if d <= dist.(u) then
          List.iter
            (fun (v, len) ->
              let nd = d +. len in
              if nd < dist.(v) then begin
                dist.(v) <- nd;
                Heap.push heap (nd, v)
              end)
            g.adjacency.(u);
        loop ()
    in
    loop ();
    dist

  type metric = { n : int; table : float array array }

  let all_pairs (g : graph) =
    { n = g.n; table = Array.init g.n (single_source g) }

  let distance m u v =
    if u < 0 || u >= m.n || v < 0 || v >= m.n then
      invalid_arg "distance: node out of range";
    m.table.(u).(v)

  (* The seed Pm_offline.solve: per-pair [distance] calls, service
     refolded per destination, sequential scan. *)
  let pm_solve metric ~d_factor (inst : Network.Pm_model.instance) =
    let t_len = Array.length inst.Network.Pm_model.rounds in
    let n = metric.n in
    let value = Array.make n infinity in
    value.(inst.Network.Pm_model.start) <- 0.0;
    let parents = Array.make_matrix t_len n 0 in
    let next = Array.make n 0.0 in
    for t = 0 to t_len - 1 do
      let requests = inst.Network.Pm_model.rounds.(t) in
      for x = 0 to n - 1 do
        let service =
          Array.fold_left
            (fun acc v -> acc +. distance metric x v)
            0.0 requests
        in
        let best = ref infinity and best_y = ref 0 in
        for y = 0 to n - 1 do
          if Float.is_finite value.(y) then begin
            let c = value.(y) +. (d_factor *. distance metric y x) in
            if c < !best then begin
              best := c;
              best_y := y
            end
          end
        done;
        next.(x) <- !best +. service;
        parents.(t).(x) <- !best_y
      done;
      Array.blit next 0 value 0 n
    done;
    let best_x = ref 0 in
    for x = 1 to n - 1 do
      if value.(x) < value.(!best_x) then best_x := x
    done;
    let positions = Array.make t_len 0 in
    let x = ref !best_x in
    for t = t_len - 1 downto 0 do
      positions.(t) <- !x;
      x := parents.(t).(!x)
    done;
    (value.(!best_x), positions)
end

let run_network ~quick ~out () =
  print_endline "\n=== NETWORK: CSR graphs, unboxed Dijkstra, PM optima ===\n";
  let bit_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let n = if quick then 120 else 400 in
  let t_len = if quick then 64 else 256 in
  let d = 4.0 in
  let rng = Prng.Stream.named ~name:"bench-network" ~seed:1 in
  let graph, _layout = Network.Graph.random_geometric ~n rng in
  let replica = Network_replica.of_graph graph in
  let edge_count = List.length (Network.Graph.edges graph) in
  (* Requests: a handful of nodes per round, the shape that exercises
     both the service fold and the migration scan. *)
  let inst =
    Network.Pm_model.make_instance graph ~start:0
      (Array.init t_len (fun _ ->
           Array.init 4 (fun _ -> Prng.Xoshiro.next_below rng n)))
  in
  (* --- cold all-pairs construction --------------------------------- *)
  let ap_reps = if quick then 3 else 10 in
  let ap_replica_ms =
    time_per ~repeat:ap_reps (fun () -> Network_replica.all_pairs replica)
    *. 1e3
  in
  let ap_csr_ms =
    time_per ~repeat:ap_reps (fun () -> Network.Dijkstra.all_pairs graph)
    *. 1e3
  in
  let ap_speedup = ap_replica_ms /. ap_csr_ms in
  let rmetric = Network_replica.all_pairs replica in
  let metric = Network.Dijkstra.all_pairs graph in
  (* --- per-query distance ------------------------------------------ *)
  let queries = if quick then 20_000 else 100_000 in
  let qu = Array.init queries (fun _ -> Prng.Xoshiro.next_below rng n) in
  let qv = Array.init queries (fun _ -> Prng.Xoshiro.next_below rng n) in
  let query_reps = if quick then 20 else 50 in
  let sum_queries dist =
    let acc = ref 0.0 in
    for i = 0 to queries - 1 do
      acc := !acc +. dist qu.(i) qv.(i)
    done;
    !acc
  in
  let per_query secs = secs /. float_of_int queries *. 1e9 in
  let query_replica_ns =
    per_query
      (time_per ~repeat:query_reps (fun () ->
           sum_queries (Network_replica.distance rmetric)))
  in
  let query_csr_ns =
    per_query
      (time_per ~repeat:query_reps (fun () ->
           sum_queries (Network.Dijkstra.distance metric)))
  in
  (* --- offline DP solve -------------------------------------------- *)
  let dp_reps = if quick then 2 else 3 in
  let dp_replica_ms =
    time_per ~repeat:dp_reps (fun () ->
        Network_replica.pm_solve rmetric ~d_factor:d inst)
    *. 1e3
  in
  let dp_csr_ms =
    time_per ~repeat:dp_reps (fun () ->
        Network.Pm_offline.solve metric ~d_factor:d inst)
    *. 1e3
  in
  let dp_speedup = dp_replica_ms /. dp_csr_ms in
  (* --- identity: the science did not move --------------------------- *)
  let flat = Network.Dijkstra.dense_table metric in
  let identity_allpairs =
    let ok = ref true in
    for u = 0 to n - 1 do
      let row = rmetric.Network_replica.table.(u) in
      for v = 0 to n - 1 do
        if not (bit_eq row.(v) (Geometry.Fbuf.get flat ((u * n) + v))) then
          ok := false
      done
    done;
    !ok
  in
  (* Lazy rows, with a capacity forcing evictions, must reproduce the
     dense table bit for bit. *)
  let identity_lazy =
    let lazym = Network.Dijkstra.lazy_metric ~capacity:32 graph in
    let ok = ref true in
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if
          not
            (bit_eq
               (Network.Dijkstra.distance lazym u v)
               (Geometry.Fbuf.get flat ((u * n) + v)))
        then ok := false
      done
    done;
    !ok
  in
  let replica_cost, replica_positions =
    Network_replica.pm_solve rmetric ~d_factor:d inst
  in
  let sol = Network.Pm_offline.solve metric ~d_factor:d inst in
  let identity_dp =
    bit_eq replica_cost sol.Network.Pm_offline.cost
    && replica_positions = sol.Network.Pm_offline.positions
  in
  (* Cached optimum: cold miss, warm hit, both equal to the direct
     solve bit for bit. *)
  Offline.Opt_cache.reset_stats ();
  let cache_t0 = Unix.gettimeofday () in
  let cached_cold =
    Network.Pm_offline.optimum_cached ~graph metric ~d_factor:d inst
  in
  let cache_cold_ms = (Unix.gettimeofday () -. cache_t0) *. 1e3 in
  let cache_t1 = Unix.gettimeofday () in
  let cached_warm =
    Network.Pm_offline.optimum_cached ~graph metric ~d_factor:d inst
  in
  let cache_warm_ms = (Unix.gettimeofday () -. cache_t1) *. 1e3 in
  let cache_stats = Offline.Opt_cache.stats () in
  let identity_cached =
    bit_eq cached_cold sol.Network.Pm_offline.cost
    && bit_eq cached_warm sol.Network.Pm_offline.cost
    && cache_stats.Offline.Opt_cache.hits > 0
  in
  (* jobs=2 must reproduce the jobs=1 table and DP bit for bit. *)
  let saved_jobs = Exec.jobs () in
  Exec.set_jobs 2;
  let metric_j2 = Network.Dijkstra.all_pairs graph in
  let sol_j2 = Network.Pm_offline.solve metric_j2 ~d_factor:d inst in
  Exec.set_jobs saved_jobs;
  let identity_jobs =
    let flat_j2 = Network.Dijkstra.dense_table metric_j2 in
    let ok =
      ref (Geometry.Fbuf.length flat_j2 = Geometry.Fbuf.length flat)
    in
    if !ok then
      for i = 0 to Geometry.Fbuf.length flat - 1 do
        if not (bit_eq (Geometry.Fbuf.get flat i) (Geometry.Fbuf.get flat_j2 i))
        then ok := false
      done;
    !ok
    && bit_eq sol.Network.Pm_offline.cost sol_j2.Network.Pm_offline.cost
    && sol.Network.Pm_offline.positions = sol_j2.Network.Pm_offline.positions
  in
  (* --- render ------------------------------------------------------ *)
  Tables.print
    ~title:"network timings (lower is better)"
    (Tables.create
       ~aligns:[ Tables.Left; Tables.Right; Tables.Right; Tables.Right ]
       ~header:[ "operation"; "replica"; "CSR"; "speedup" ]
       [
         [ Printf.sprintf "all-pairs, n=%d (ms)" n;
           Tables.cell ap_replica_ms; Tables.cell ap_csr_ms;
           Tables.cell ap_speedup ];
         [ "distance query (ns)"; Tables.cell query_replica_ns;
           Tables.cell query_csr_ns;
           Tables.cell (query_replica_ns /. query_csr_ns) ];
         [ Printf.sprintf "PM offline DP, T=%d (ms)" t_len;
           Tables.cell dp_replica_ms; Tables.cell dp_csr_ms;
           Tables.cell dp_speedup ];
         [ "cached PM optimum (ms)"; Tables.cell cache_cold_ms;
           Tables.cell cache_warm_ms;
           Tables.cell (cache_cold_ms /. Float.max 1e-6 cache_warm_ms) ];
       ]);
  Printf.printf "replica = CSR (all-pairs)     : %b\n" identity_allpairs;
  Printf.printf "lazy = dense                  : %b\n" identity_lazy;
  Printf.printf "replica = CSR (DP solve)      : %b\n" identity_dp;
  Printf.printf "cached = uncached             : %b\n" identity_cached;
  Printf.printf "jobs1 = jobs2                 : %b\n%!" identity_jobs;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"msp-bench-network-v1\",\n";
  Buffer.add_string buf (Printf.sprintf "  %s,\n" (machine_json ()));
  Buffer.add_string buf (Printf.sprintf "  %s,\n" timing_json);
  Buffer.add_string buf (Printf.sprintf "  \"quick\": %b,\n" quick);
  Buffer.add_string buf (Printf.sprintf "  \"nodes\": %d,\n" n);
  Buffer.add_string buf (Printf.sprintf "  \"edges\": %d,\n" edge_count);
  Buffer.add_string buf (Printf.sprintf "  \"rounds\": %d,\n" t_len);
  Buffer.add_string buf
    (Printf.sprintf "  \"allpairs_replica_ms\": %.6g,\n" ap_replica_ms);
  Buffer.add_string buf
    (Printf.sprintf "  \"allpairs_csr_ms\": %.6g,\n" ap_csr_ms);
  Buffer.add_string buf
    (Printf.sprintf "  \"allpairs_speedup\": %.6g,\n" ap_speedup);
  Buffer.add_string buf
    (Printf.sprintf "  \"query_replica_ns\": %.6g,\n" query_replica_ns);
  Buffer.add_string buf
    (Printf.sprintf "  \"query_csr_ns\": %.6g,\n" query_csr_ns);
  Buffer.add_string buf
    (Printf.sprintf "  \"query_speedup\": %.6g,\n"
       (query_replica_ns /. query_csr_ns));
  Buffer.add_string buf
    (Printf.sprintf "  \"pm_dp_replica_ms\": %.6g,\n" dp_replica_ms);
  Buffer.add_string buf
    (Printf.sprintf "  \"pm_dp_csr_ms\": %.6g,\n" dp_csr_ms);
  Buffer.add_string buf
    (Printf.sprintf "  \"pm_dp_speedup\": %.6g,\n" dp_speedup);
  Buffer.add_string buf
    (Printf.sprintf "  \"pm_cache_cold_ms\": %.6g,\n" cache_cold_ms);
  Buffer.add_string buf
    (Printf.sprintf "  \"pm_cache_warm_ms\": %.6g,\n" cache_warm_ms);
  Buffer.add_string buf
    (Printf.sprintf "  \"identity_allpairs_replica_vs_csr\": %b,\n"
       identity_allpairs);
  Buffer.add_string buf
    (Printf.sprintf "  \"identity_lazy_vs_dense\": %b,\n" identity_lazy);
  Buffer.add_string buf
    (Printf.sprintf "  \"identity_dp_replica_vs_csr\": %b,\n" identity_dp);
  Buffer.add_string buf
    (Printf.sprintf "  \"identity_cached_vs_uncached\": %b,\n" identity_cached);
  Buffer.add_string buf
    (Printf.sprintf "  \"identity_jobs1_vs_jobs2\": %b\n" identity_jobs);
  Buffer.add_string buf "}\n";
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents buf));
  Printf.printf "network report written to %s\n" out;
  if
    not
      (identity_allpairs && identity_lazy && identity_dp && identity_cached
       && identity_jobs)
  then begin
    prerr_endline
      "FATAL: network rewrite is not byte-identical to the baseline";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Serve: the sharded session daemon under an open-world schedule, at
   two live-session scales on a journaled daemon plus one streaming
   scale point on an unjournaled one.  Throughput and p99 step latency
   are reported, but the numbers only count if the identity wall holds:
   every served trajectory byte-identical to an in-process
   Engine.run_stream replay, the jobs=1 reply stream byte-identical to
   jobs=N, and (at the smallest scale) journal on byte-identical to
   journal off. *)

type serve_row = {
  sr_mode : string;  (* "journaled" | "unjournaled" *)
  sr_scale : int;
  sr_ticks : int;
  sr_fingerprint : string;  (* empty for unjournaled points *)
  sr_peak : int;
  sr_sessions : int;
  sr_steps : int;
  sr_elapsed : float;
  sr_sps : float;
  sr_p99_service_ms : float;
  sr_p99_sojourn_ms : float;
  sr_id_engine : bool;
  sr_id_jobs : bool;
  sr_id_journal : bool option;
      (* unjournaled twin of a journaled scale: reply digests equal *)
}

let p99_ms a =
  if Array.length a = 0 then 0.0 else 1e3 *. Stats.Quantile.quantile a 0.99

let run_serve ~quick ~out () =
  let jobs = max 2 (Exec.jobs ()) in
  Printf.printf "\n=== SERVE: sharded session daemon, jobs=%d ===\n\n" jobs;
  let config = MS.Config.make ~d_factor:2.0 ~move_limit:1.0 ~delta:0.5 () in
  let dim = 2 in
  let shards = 8 in
  let ticks = 24 in
  let lifetime = 16.0 in
  let scales = if quick then [ 500; 2_000 ] else [ 10_000; 100_000 ] in
  (* The streaming scale point: sessions held for the whole (short)
     horizon, so the daemon sustains [stream_scale] live sessions — 1M
     in the full run — which only fits because nothing is O(total
     steps): the schedule streams from its spec, the daemon skips
     journaling and the driver keeps one digest per session. *)
  let stream_scale = if quick then 5_000 else 1_000_000 in
  let stream_ticks = 4 in
  let spec_at ~scale ~ticks ~lifetime =
    Workloads.Open_world.spec
      ~arrival_rate:(float_of_int scale /. lifetime)
      ~mean_lifetime:lifetime ~initial:scale ~dim ~seed:(41_000 + scale)
      ~ticks ()
  in
  let serve spec ~journal ~jobs ~timed =
    let daemon = Serve.Daemon.create ~shards ~jobs ~journal ~config () in
    Fun.protect
      ~finally:(fun () -> Serve.Daemon.shutdown daemon)
      (fun () ->
        let t0 = Unix.gettimeofday () in
        let now = if timed then Some Unix.gettimeofday else None in
        let report = Serve.Driver.run ?now daemon spec in
        (report, Unix.gettimeofday () -. t0))
  in
  let print_row (r : serve_row) =
    Printf.printf
      "%-12s %8d live target: peak %8d, %9d steps, %10.0f steps/s, p99 \
       service %8.4f ms, p99 sojourn %9.3f ms, serve=engine %b, jobs1=jobs%d \
       %b%s\n%!"
      r.sr_mode r.sr_scale r.sr_peak r.sr_steps r.sr_sps r.sr_p99_service_ms
      r.sr_p99_sojourn_ms r.sr_id_engine jobs r.sr_id_jobs
      (match r.sr_id_journal with
       | None -> ""
       | Some b -> Printf.sprintf ", journal on=off %b" b)
  in
  let row_of ~mode ~scale ~ticks ~fingerprint ~id_journal (report_n, elapsed)
      report_1 =
    let identity_engine =
      Serve.Driver.ok report_n && Serve.Driver.ok report_1
    in
    let identity_jobs =
      String.equal report_n.Serve.Driver.reply_digest
        report_1.Serve.Driver.reply_digest
    in
    List.iter
      (fun m -> Printf.printf "  mismatch: %s\n" m)
      (report_n.Serve.Driver.mismatches @ report_1.Serve.Driver.mismatches);
    let row =
      {
        sr_mode = mode;
        sr_scale = scale;
        sr_ticks = ticks;
        sr_fingerprint = fingerprint;
        sr_peak = report_n.Serve.Driver.peak_live;
        sr_sessions = report_n.Serve.Driver.sessions;
        sr_steps = report_n.Serve.Driver.steps;
        sr_elapsed = elapsed;
        sr_sps = float_of_int report_n.Serve.Driver.steps /. elapsed;
        sr_p99_service_ms = p99_ms report_n.Serve.Driver.service_latencies;
        sr_p99_sojourn_ms = p99_ms report_n.Serve.Driver.latencies;
        sr_id_engine = identity_engine;
        sr_id_jobs = identity_jobs;
        sr_id_journal = id_journal;
      }
    in
    print_row row;
    row
  in
  let measure scale =
    (* initial = scale with arrivals balancing departures keeps the
       live count pinned near [scale] for the whole horizon. *)
    let spec = spec_at ~scale ~ticks ~lifetime in
    let timed_n = serve spec ~journal:true ~jobs ~timed:true in
    let report_1, _ = serve spec ~journal:true ~jobs:1 ~timed:false in
    (* Journal on ≡ off at the smallest scale: replies depend only on
       the frames, so the chained reply digests must match. *)
    let id_journal =
      if scale = List.hd scales then begin
        let off, _ = serve spec ~journal:false ~jobs ~timed:false in
        Some
          (String.equal off.Serve.Driver.reply_digest
             (fst timed_n).Serve.Driver.reply_digest
          && Serve.Driver.ok off)
      end
      else None
    in
    row_of ~mode:"journaled" ~scale ~ticks
      ~fingerprint:
        (Workloads.Open_world.fingerprint (Workloads.Open_world.of_spec spec))
      ~id_journal timed_n report_1
  in
  let measure_stream () =
    (* Long lifetimes pin every initial session for the whole horizon;
       the plans are never materialized, so the fingerprint is elided
       (it would cost the very allocation the point exists to avoid). *)
    let spec = spec_at ~scale:stream_scale ~ticks:stream_ticks ~lifetime:1e6 in
    let timed_n = serve spec ~journal:false ~jobs ~timed:true in
    let report_1, _ = serve spec ~journal:false ~jobs:1 ~timed:false in
    row_of ~mode:"unjournaled" ~scale:stream_scale ~ticks:stream_ticks
      ~fingerprint:"" ~id_journal:None timed_n report_1
  in
  let rows = List.map measure scales @ [ measure_stream () ] in
  Tables.print
    ~title:"serve daemon (sustained, identity-gated)"
    (Tables.create
       ~aligns:
         [ Tables.Left; Tables.Right; Tables.Right; Tables.Right;
           Tables.Right; Tables.Right ]
       ~header:
         [ "mode"; "live sessions"; "steps"; "steps/sec"; "p99 svc (ms)";
           "p99 sojourn (ms)" ]
       (List.map
          (fun r ->
            [ r.sr_mode;
              Printf.sprintf "%d" r.sr_scale;
              Printf.sprintf "%d" r.sr_steps;
              Tables.cell r.sr_sps;
              Tables.cell r.sr_p99_service_ms;
              Tables.cell r.sr_p99_sojourn_ms ])
          rows));
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"msp-bench-serve-v3\",\n";
  Buffer.add_string buf (Printf.sprintf "  %s,\n" (machine_json ()));
  Buffer.add_string buf (Printf.sprintf "  \"quick\": %b,\n" quick);
  Buffer.add_string buf (Printf.sprintf "  \"jobs\": %d,\n" jobs);
  Buffer.add_string buf (Printf.sprintf "  \"shards\": %d,\n" shards);
  Buffer.add_string buf (Printf.sprintf "  \"dim\": %d,\n" dim);
  Buffer.add_string buf "  \"scales\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"mode\": %S, \"live_target\": %d, \"ticks\": %d, \
            \"peak_live\": %d, \"sessions\": %d, \"steps\": %d, \
            \"elapsed_s\": %.6g, \"steps_per_sec\": %.6g, \
            \"p99_service_latency_ms\": %.6g, \"p99_sojourn_latency_ms\": \
            %.6g, \"schedule_fingerprint\": %S, \
            \"identity_serve_vs_engine\": %b, \"identity_jobs1_vs_jobsN\": \
            %b%s}%s\n"
           r.sr_mode r.sr_scale r.sr_ticks r.sr_peak r.sr_sessions r.sr_steps
           r.sr_elapsed r.sr_sps r.sr_p99_service_ms r.sr_p99_sojourn_ms
           r.sr_fingerprint r.sr_id_engine r.sr_id_jobs
           (match r.sr_id_journal with
            | None -> ""
            | Some b ->
              Printf.sprintf ", \"identity_journal_on_vs_off\": %b" b)
           (if i < List.length rows - 1 then "," else "")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents buf));
  Printf.printf "serve report written to %s\n" out;
  if
    not
      (List.for_all
         (fun r ->
           r.sr_id_engine && r.sr_id_jobs
           && (match r.sr_id_journal with None -> true | Some b -> b))
         rows)
  then begin
    prerr_endline
      "FATAL: serve daemon output is not byte-identical to the in-process \
       engine (or jobs=1 differs from jobs=N, or journal on differs from \
       journal off)";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Multicore matrix: the same fixed work at jobs = 1/2/4/8 — a serve
   schedule (shard-drain parallelism) and one Exec-pooled experiment
   sweep — recording wall clock per cell and gating on byte-identical
   output across the whole matrix (the Exec determinism contract).
   Speedups are honest for whatever box runs this: on a single
   hardware thread they hover around 1x. *)

let multicore_jobs = [ 1; 2; 4; 8 ]

(* GC work done by [f]: minor words, minor and major collections, as
   [Gc.quick_stat] deltas.  With several domains these are program
   totals as of each domain's last minor collection (gc.mli). *)
type gc_delta = { minor_words : float; minor_gcs : int; major_gcs : int }

let with_gc_delta f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  ( r,
    { minor_words = s1.Gc.minor_words -. s0.Gc.minor_words;
      minor_gcs = s1.Gc.minor_collections - s0.Gc.minor_collections;
      major_gcs = s1.Gc.major_collections - s0.Gc.major_collections } )

let gc_delta_json prefix g =
  Printf.sprintf
    "\"%s_minor_words\": %.6g, \"%s_minor_collections\": %d, \
     \"%s_major_collections\": %d"
    prefix g.minor_words prefix g.minor_gcs prefix g.major_gcs

let run_multicore ~quick ~out () =
  Printf.printf "\n=== MULTICORE: jobs=1/2/4/8 matrix ===\n\n";
  let config = MS.Config.make ~d_factor:2.0 ~move_limit:1.0 ~delta:0.5 () in
  let scale = if quick then 1_000 else 20_000 in
  let spec =
    Workloads.Open_world.spec ~arrival_rate:(float_of_int scale /. 16.0)
      ~mean_lifetime:16.0 ~initial:scale ~dim:2 ~seed:(43_000 + scale)
      ~ticks:12 ()
  in
  let experiment = "e4" in
  let cells =
    List.map
      (fun jobs ->
        let daemon = Serve.Daemon.create ~shards:8 ~jobs ~config () in
        let (serve_s, digest), serve_gc =
          with_gc_delta (fun () ->
              Fun.protect
                ~finally:(fun () -> Serve.Daemon.shutdown daemon)
                (fun () ->
                  let t0 = Unix.gettimeofday () in
                  let report = Serve.Driver.run daemon spec in
                  ( Unix.gettimeofday () -. t0,
                    report.Serve.Driver.reply_digest )))
        in
        Exec.set_jobs jobs;
        (* Every cell pays cold solves — otherwise the first cell warms
           the OPT cache and later cells report a phantom speedup. *)
        Offline.Opt_cache.clear ();
        let (exp_s, result), exp_gc =
          with_gc_delta (fun () ->
              let t0 = Unix.gettimeofday () in
              let result = Experiments.Catalog.run ~quick experiment in
              (Unix.gettimeofday () -. t0, result))
        in
        let exp_report = Experiments.Catalog.result_to_markdown result in
        Printf.printf
          "jobs=%d   serve %6.2fs (%d minor GCs)   %s %6.2fs (%d minor GCs)\n%!"
          jobs serve_s serve_gc.minor_gcs experiment exp_s exp_gc.minor_gcs;
        (jobs, serve_s, digest, exp_s, exp_report, serve_gc, exp_gc))
      multicore_jobs
  in
  Exec.set_jobs (Exec.default_jobs ());
  let _, base_serve, base_digest, base_exp, base_report, _, _ =
    List.hd cells
  in
  let identical =
    List.for_all
      (fun (_, _, digest, _, report, _, _) ->
        String.equal digest base_digest && String.equal report base_report)
      cells
  in
  Tables.print ~title:"multicore scaling (identity-gated)"
    (Tables.create
       ~aligns:[ Tables.Right; Tables.Right; Tables.Right; Tables.Right;
                 Tables.Right ]
       ~header:[ "jobs"; "serve (s)"; "speedup"; experiment ^ " (s)";
                 "speedup" ]
       (List.map
          (fun (jobs, serve_s, _, exp_s, _, _, _) ->
            [ Printf.sprintf "%d" jobs;
              Tables.cell serve_s;
              Tables.cell (if serve_s > 0.0 then base_serve /. serve_s else 1.0);
              Tables.cell exp_s;
              Tables.cell (if exp_s > 0.0 then base_exp /. exp_s else 1.0) ])
          cells));
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"msp-bench-multicore-v1\",\n";
  Buffer.add_string buf (Printf.sprintf "  %s,\n" (machine_json ()));
  Buffer.add_string buf (Printf.sprintf "  \"quick\": %b,\n" quick);
  Buffer.add_string buf
    (Printf.sprintf "  \"serve_live_target\": %d,\n" scale);
  Buffer.add_string buf (Printf.sprintf "  \"experiment\": %S,\n" experiment);
  Buffer.add_string buf
    (Printf.sprintf "  \"identical_output\": %b,\n" identical);
  Buffer.add_string buf "  \"cells\": [\n";
  List.iteri
    (fun i (jobs, serve_s, digest, exp_s, _, serve_gc, exp_gc) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"jobs\": %d, \"serve_seconds\": %.6g, \"serve_speedup\": \
            %.6g, \"experiment_seconds\": %.6g, \"experiment_speedup\": \
            %.6g, %s, %s, \"serve_reply_digest\": %S}%s\n"
           jobs serve_s
           (if serve_s > 0.0 then base_serve /. serve_s else 1.0)
           exp_s
           (if exp_s > 0.0 then base_exp /. exp_s else 1.0)
           (gc_delta_json "serve" serve_gc)
           (gc_delta_json "experiment" exp_gc)
           digest
           (if i < List.length cells - 1 then "," else "")))
    cells;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents buf));
  Printf.printf "multicore report written to %s\n" out;
  if not identical then begin
    prerr_endline "FATAL: multicore output differs across jobs counts";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Parallel scaling: run a few multi-seed experiments at jobs=1 and at
   the requested jobs count, check the reports are byte-identical (the
   Exec determinism contract), and record wall-clock per experiment. *)

let parallel_sample = [ "e4"; "e9"; "t1" ]

let run_parallel ~quick ~jobs ~out () =
  Printf.printf "\n=== PARALLEL: jobs=1 vs jobs=%d scaling check ===\n\n" jobs;
  let time_at ~jobs id =
    Exec.set_jobs jobs;
    (* Both runs pay cold solves — otherwise the jobs=1 run warms the
       OPT cache and the jobs=N run reports a phantom speedup. *)
    Offline.Opt_cache.clear ();
    let t0 = Unix.gettimeofday () in
    let result = Experiments.Catalog.run ~quick id in
    (Unix.gettimeofday () -. t0, Experiments.Catalog.result_to_markdown result)
  in
  let rows =
    List.map
      (fun id ->
        let s1, report1 = time_at ~jobs:1 id in
        let sn, reportn = time_at ~jobs id in
        let identical = String.equal report1 reportn in
        let speedup = if sn > 0.0 then s1 /. sn else 1.0 in
        Printf.printf
          "%-4s jobs=1 %6.2fs   jobs=%d %6.2fs   speedup %.2fx   identical %b\n%!"
          id s1 jobs sn speedup identical;
        (id, s1, sn, speedup, identical))
      parallel_sample
  in
  Exec.set_jobs jobs;
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"msp-bench-parallel-v1\",\n";
  Buffer.add_string buf (Printf.sprintf "  %s,\n" (machine_json ()));
  Buffer.add_string buf (Printf.sprintf "  \"jobs\": %d,\n" jobs);
  Buffer.add_string buf (Printf.sprintf "  \"quick\": %b,\n" quick);
  Buffer.add_string buf
    (Printf.sprintf "  \"default_jobs\": %d,\n" (Exec.default_jobs ()));
  Buffer.add_string buf "  \"experiments\": [\n";
  List.iteri
    (fun i (id, s1, sn, speedup, identical) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"id\": %S, \"seconds_jobs1\": %.6g, \"seconds_jobsN\": \
            %.6g, \"speedup\": %.6g, \"identical_output\": %b}%s\n"
           id s1 sn speedup identical
           (if i < List.length rows - 1 then "," else "")))
    rows;
  Buffer.add_string buf "  ]\n}\n";
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents buf));
  Printf.printf "parallel scaling report written to %s\n" out;
  if not (List.for_all (fun (_, _, _, _, identical) -> identical) rows) then begin
    prerr_endline "FATAL: parallel output differs from sequential output";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Fleet benchmark: the min-cost-flow relaxation optimum vs brute-force
   enumeration and the OPT cache, and the jobs=1 vs jobs=N sweep — all
   gated on bitwise identity.  JSON lands in BENCH_fleet.json (or
   --fleet-out). *)

let run_fleet ~quick ~out () =
  print_endline "\n=== FLEET: flow OPT, identity ===\n";
  let bit_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let all_bit_eq a b =
    Array.length a = Array.length b && Array.for_all2 bit_eq a b
  in
  let config = MS.Config.make ~d_factor:2.0 ~move_limit:1.0 ~delta:0.5 () in
  let gen ?hotspots ?r_min ?r_max ~t seed =
    Workloads.Hotspots.generate ?hotspots ?r_min ?r_max ~dim:2 ~t
      (Prng.Stream.named ~name:"bench-fleet" ~seed)
  in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  (* --- flow OPT timings at k in {10, 100, 1000} --------------------- *)
  let flow_points =
    if quick then [ (10, 20); (100, 40); (1000, 67) ]
    else [ (10, 80); (100, 167); (1000, 400) ]
  in
  let d_factor = config.MS.Config.d_factor in
  let flow_rows =
    List.map
      (fun (k, t) ->
        let inst = gen ~r_min:1 ~r_max:1 ~t (2000 + k) in
        let requests = Array.concat (Array.to_list inst.MS.Instance.steps) in
        let n = Array.length requests in
        let flow_ms, (opt, _) =
          timed (fun () ->
              Multi.Fleet_flow.solve ~d_factor ~start:inst.MS.Instance.start
                ~requests ~k)
        in
        (k, n, flow_ms *. 1e3, opt))
      flow_points
  in
  (* --- flow vs brute at enumerable sizes ---------------------------- *)
  let brute_rows =
    List.map
      (fun (k, t, seed) ->
        let inst = gen ~hotspots:1 ~r_min:1 ~r_max:1 ~t seed in
        let n = t in
        let brute_ms, brute =
          timed (fun () -> Multi.Fleet_offline.optimum_brute ~k config inst)
        in
        Offline.Opt_cache.clear ();
        let flow_ms, flow =
          timed (fun () -> Multi.Fleet_offline.optimum_flow ~k config inst)
        in
        ( k, n, brute_ms *. 1e3, flow_ms *. 1e3, brute_ms /. flow_ms,
          bit_eq brute flow ))
      (if quick then [ (2, 10, 3); (3, 8, 4) ]
       else [ (2, 18, 3); (2, 14, 5); (3, 12, 4); (3, 10, 6) ])
  in
  let identity_flow_vs_brute =
    List.for_all (fun (_, _, _, _, _, ok) -> ok) brute_rows
  in
  (* --- OPT cache: cold vs warm vs bypassed -------------------------- *)
  let cache_inst = gen ~r_min:1 ~r_max:1 ~t:(if quick then 40 else 120) 77 in
  Offline.Opt_cache.set_enabled true;
  Offline.Opt_cache.clear ();
  Offline.Opt_cache.reset_stats ();
  let cache_k = 25 in
  let cold_s, opt_cold =
    timed (fun () -> Multi.Fleet_offline.optimum_flow ~k:cache_k config cache_inst)
  in
  let warm_s, opt_warm =
    timed (fun () -> Multi.Fleet_offline.optimum_flow ~k:cache_k config cache_inst)
  in
  Offline.Opt_cache.set_enabled false;
  let _, opt_uncached =
    timed (fun () -> Multi.Fleet_offline.optimum_flow ~k:cache_k config cache_inst)
  in
  Offline.Opt_cache.set_enabled true;
  let identity_cached_vs_uncached =
    bit_eq opt_cold opt_warm && bit_eq opt_cold opt_uncached
  in
  let cache_stats = Offline.Opt_cache.stats () in
  (* --- jobs=1 vs jobs=2: engine cost / flow OPT per seed ------------ *)
  let sweep_seeds = if quick then 4 else 8 in
  let sweep_t = if quick then 12 else 30 in
  let sweep () =
    Exec.map
      (fun seed ->
        let inst = gen ~t:sweep_t seed in
        let cost =
          Multi.Fleet_engine.total_cost ~k:16 config
            Multi.Fleet_mtc.independent inst
        in
        let opt = Multi.Fleet_offline.optimum_flow ~k:16 config inst in
        cost /. opt)
      (Array.init sweep_seeds (fun i -> 500 + i))
  in
  let saved_jobs = Exec.jobs () in
  Exec.set_jobs 1;
  Offline.Opt_cache.clear ();
  let j1_s, sweep_j1 = timed sweep in
  Exec.set_jobs 2;
  Offline.Opt_cache.clear ();
  let j2_s, sweep_j2 = timed sweep in
  Exec.set_jobs saved_jobs;
  let identity_jobs1_vs_jobs2 = all_bit_eq sweep_j1 sweep_j2 in
  (* --- render ------------------------------------------------------- *)
  Tables.print ~title:"flow OPT of the serve-assignment relaxation"
    (Tables.create
       ~aligns:[ Tables.Right; Tables.Right; Tables.Right; Tables.Right ]
       ~header:[ "k"; "requests"; "solve (ms)"; "OPT" ]
       (List.map
          (fun (k, n, ms, opt) ->
            [ string_of_int k; string_of_int n; Tables.cell ms;
              Tables.cell opt ])
          flow_rows));
  Tables.print ~title:"flow vs brute-force enumeration"
    (Tables.create
       ~aligns:
         [ Tables.Right; Tables.Right; Tables.Right; Tables.Right;
           Tables.Right; Tables.Left ]
       ~header:
         [ "k"; "requests"; "brute (ms)"; "flow (ms)"; "speedup";
           "identical" ]
       (List.map
          (fun (k, n, bms, fms, s, ok) ->
            [ string_of_int k; string_of_int n; Tables.cell bms;
              Tables.cell fms; Tables.cell s; string_of_bool ok ])
          brute_rows));
  Printf.printf "cache stats                    : %d hits, %d misses\n"
    cache_stats.Offline.Opt_cache.hits cache_stats.Offline.Opt_cache.misses;
  Printf.printf "flow cold %.1fms, warm %.1fms (speedup %.1fx)\n"
    (cold_s *. 1e3) (warm_s *. 1e3) (cold_s /. warm_s);
  Printf.printf "sweep jobs=1 %.2fs, jobs=2 %.2fs\n" j1_s j2_s;
  Printf.printf "flow OPT = brute OPT           : %b\n" identity_flow_vs_brute;
  Printf.printf "cached = cold = bypassed       : %b\n"
    identity_cached_vs_uncached;
  Printf.printf "jobs1 = jobs2                  : %b\n%!"
    identity_jobs1_vs_jobs2;
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"schema\": \"msp-bench-fleet-v2\",\n";
  Buffer.add_string buf (Printf.sprintf "  %s,\n" (machine_json ()));
  Buffer.add_string buf (Printf.sprintf "  \"quick\": %b,\n" quick);
  Buffer.add_string buf "  \"flow\": [\n";
  List.iteri
    (fun i (k, n, ms, opt) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"k\": %d, \"requests\": %d, \"solve_ms\": %.6g, \
            \"opt\": %.6g}%s\n"
           k n ms opt
           (if i < List.length flow_rows - 1 then "," else "")))
    flow_rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf "  \"brute\": [\n";
  List.iteri
    (fun i (k, n, bms, fms, s, ok) ->
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"k\": %d, \"requests\": %d, \"brute_ms\": %.6g, \
            \"flow_ms\": %.6g, \"speedup\": %.6g, \"identical\": %b}%s\n"
           k n bms fms s ok
           (if i < List.length brute_rows - 1 then "," else "")))
    brute_rows;
  Buffer.add_string buf "  ],\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"flow_cold_ms\": %.6g,\n" (cold_s *. 1e3));
  Buffer.add_string buf
    (Printf.sprintf "  \"flow_warm_ms\": %.6g,\n" (warm_s *. 1e3));
  Buffer.add_string buf
    (Printf.sprintf "  \"cache_warm_speedup\": %.6g,\n" (cold_s /. warm_s));
  Buffer.add_string buf
    (Printf.sprintf "  \"sweep_seeds\": %d,\n" sweep_seeds);
  Buffer.add_string buf
    (Printf.sprintf "  \"sweep_jobs1_s\": %.6g,\n" j1_s);
  Buffer.add_string buf
    (Printf.sprintf "  \"sweep_jobs2_s\": %.6g,\n" j2_s);
  Buffer.add_string buf
    (Printf.sprintf "  \"identity_flow_vs_brute\": %b,\n"
       identity_flow_vs_brute);
  Buffer.add_string buf
    (Printf.sprintf "  \"identity_cached_vs_uncached\": %b,\n"
       identity_cached_vs_uncached);
  Buffer.add_string buf
    (Printf.sprintf "  \"identity_jobs1_vs_jobs2\": %b\n"
       identity_jobs1_vs_jobs2);
  Buffer.add_string buf "}\n";
  let oc = open_out out in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents buf));
  Printf.printf "fleet report written to %s\n" out;
  if not (identity_flow_vs_brute && identity_cached_vs_uncached
          && identity_jobs1_vs_jobs2)
  then begin
    prerr_endline
      "FATAL: flow solver is not byte-identical to brute force, the \
       cache, or itself across jobs counts";
    exit 1
  end

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  (* Optional: --markdown <path> writes the whole report as Markdown. *)
  let markdown_path = ref None in
  let parallel_out = ref "BENCH_parallel.json" in
  let hotpath_out = ref "BENCH_hotpath.json" in
  let solver_out = ref "BENCH_solver.json" in
  let network_out = ref "BENCH_network.json" in
  let serve_out = ref "BENCH_serve.json" in
  let multicore_out = ref "BENCH_multicore.json" in
  let fleet_out = ref "BENCH_fleet.json" in
  let golden_path = ref Experiments.Golden.golden_path in
  let rec strip = function
    | [] -> []
    | "--quick" :: rest -> strip rest
    | "--markdown" :: path :: rest ->
      markdown_path := Some path;
      strip rest
    | "--jobs" :: n :: rest ->
      (match int_of_string_opt n with
       | Some j when j >= 1 -> Exec.set_jobs j
       | Some _ | None ->
         prerr_endline "bench: --jobs expects a positive integer";
         exit 2);
      strip rest
    | "--parallel-out" :: path :: rest ->
      parallel_out := path;
      strip rest
    | "--hotpath-out" :: path :: rest ->
      hotpath_out := path;
      strip rest
    | "--solver-out" :: path :: rest ->
      solver_out := path;
      strip rest
    | "--network-out" :: path :: rest ->
      network_out := path;
      strip rest
    | "--serve-out" :: path :: rest ->
      serve_out := path;
      strip rest
    | "--multicore-out" :: path :: rest ->
      multicore_out := path;
      strip rest
    | "--fleet-out" :: path :: rest ->
      fleet_out := path;
      strip rest
    | "--golden" :: path :: rest ->
      golden_path := path;
      strip rest
    | arg :: rest -> arg :: strip rest
  in
  let args = strip args in
  let wanted = if args = [] then Experiments.Catalog.ids @ [ "micro" ] else args in
  let t0 = Unix.gettimeofday () in
  let results = ref [] in
  List.iter
    (fun id ->
      let started = Unix.gettimeofday () in
      (match id with
       | "micro" -> run_micro ()
       | "parallel" ->
         run_parallel ~quick ~jobs:(Exec.jobs ()) ~out:!parallel_out ()
       | "hotpath" ->
         run_hotpath ~quick ~out:!hotpath_out ~golden:!golden_path ()
       | "solver" -> run_solver ~quick ~out:!solver_out ()
       | "network" -> run_network ~quick ~out:!network_out ()
       | "serve" -> run_serve ~quick ~out:!serve_out ()
       | "multicore" -> run_multicore ~quick ~out:!multicore_out ()
       | "fleet" -> run_fleet ~quick ~out:!fleet_out ()
       | id ->
         let result = Experiments.Catalog.run ~quick id in
         Experiments.Catalog.print_result result;
         results := result :: !results);
      Printf.printf "[%s finished in %.1fs]\n%!" id
        (Unix.gettimeofday () -. started))
    wanted;
  (match !markdown_path with
   | None -> ()
   | Some path ->
     let oc = open_out path in
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () ->
         output_string oc
           (Experiments.Catalog.report_markdown (List.rev !results)));
     Printf.printf "markdown report written to %s\n" path);
  Printf.printf "\nAll done in %.1fs.\n" (Unix.gettimeofday () -. t0)
