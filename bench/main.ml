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
     dune exec bench/main.exe -- hotpath      -- Vec.dist, the median,
                                                 engine rounds and the
                                                 frame codec, gated on
                                                 the golden trajectory and
                                                 jobs1 = jobs2 (JSON to
                                                 BENCH_hotpath.json, or
                                                 --hotpath-out PATH; golden
                                                 file override with
                                                 --golden PATH)
     dune exec bench/main.exe -- solver       -- packed Line_dp solve and the
                                                 OPT cache, gated on
                                                 boxed = packed,
                                                 cached = uncached,
                                                 jobs1 = jobs2 and the disk
                                                 round trip (JSON to
                                                 BENCH_solver.json, or
                                                 --solver-out PATH)
     dune exec bench/main.exe -- network      -- all-pairs Dijkstra, distance
                                                 queries, the PM offline DP
                                                 and its cache, gated on
                                                 lazy = dense,
                                                 cached = uncached and
                                                 jobs1 = jobs2 (JSON to
                                                 BENCH_network.json, or
                                                 --network-out PATH)
     dune exec bench/main.exe -- serve        -- sharded session daemon under
                                                 an open-world schedule at
                                                 10k/100k live sessions plus a
                                                 1M-live streaming point, gated
                                                 on serve = engine,
                                                 jobs1 = jobsN and
                                                 journal on = off
                                                 byte-identity (JSON to
                                                 BENCH_serve.json, or
                                                 --serve-out PATH)
     dune exec bench/main.exe -- multicore    -- the same serve schedule and
                                                 experiment sweep at
                                                 jobs=1/2/4/8, identity-gated
                                                 (JSON to BENCH_multicore.json,
                                                 or --multicore-out PATH)
     dune exec bench/main.exe -- fleet        -- the min-cost-flow relaxation
                                                 OPT at k = 10/100/1000, vs
                                                 brute force and the OPT
                                                 cache, gated on
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
(* Bench records and shared helpers.                                   *)

(* A bench record's values.  Numbers print as %d or %.6g and strings
   as %S; an [Obj] prints inline on one line, and a [Rows] array puts
   one element a line. *)
type value =
  | Int of int
  | Num of float
  | Bool of bool
  | Str of string
  | Obj of (string * value) list
  | Rows of value list

let rec inline = function
  | Int i -> string_of_int i
  | Num x -> Printf.sprintf "%.6g" x
  | Bool b -> string_of_bool b
  | Str s -> Printf.sprintf "%S" s
  | Obj fields ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (inline v)) fields)
    ^ "}"
  | Rows rows -> "[" ^ String.concat ", " (List.map inline rows) ^ "]"

(* Writes a record to [path], one top-level field a line, and says so
   on stdout. *)
let write_record ~report path fields =
  let render = function
    | Rows rows ->
      "[\n"
      ^ String.concat ",\n" (List.map (fun r -> "    " ^ inline r) rows)
      ^ "\n  ]"
    | v -> inline v
  in
  let body =
    String.concat ",\n"
      (List.map (fun (k, v) -> Printf.sprintf "  %S: %s" k (render v)) fields)
  in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "{\n%s\n}\n" body);
  Printf.printf "%s report written to %s\n" report path

(* The machine a bench record was measured on. *)
let machine () =
  ( "machine",
    Obj
      [ ("recommended_domain_count", Int (Domain.recommended_domain_count ()));
        ("ocaml_version", Str Sys.ocaml_version);
        ("flambda", Bool Build_info.flambda) ] )

(* Runs [f] with the Exec pool at [n] jobs, then restores the previous
   setting, also when [f] raises. *)
let with_jobs n f =
  let saved = Exec.jobs () in
  Exec.set_jobs n;
  Fun.protect ~finally:(fun () -> Exec.set_jobs saved) f

let bit_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Wall-clock seconds of one call of [f], with its result. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (Unix.gettimeofday () -. t0, r)

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

(* The rule above, stated in every record whose rows it times;
   [one_pass] names a row timed by one [timed] call instead. *)
let timing ?(one_pass = "") () =
  ( "timing",
    Str
      ("seconds per call = median of min(5, calls) samples that share the \
        row's calls evenly (upper middle for an even count)"
      ^ if one_pass = "" then "" else "; one call, not a median: " ^ one_pass) )

(* ------------------------------------------------------------------ *)
(* Hot-path benchmark: the allocation-free kernels, the Weiszfeld
   iteration, full engine rounds and the frame codec, plus the
   byte-identity checks that prove the science did not move.  The seed
   kernels' bits are held by test_perf_equiv (the golden trajectory and
   the closure-form Weiszfeld reference).  JSON lands in
   BENCH_hotpath.json (or --hotpath-out PATH). *)

let run_hotpath ~quick ~out ~golden () =
  print_endline "\n=== HOTPATH: kernels, median, identity ===\n";
  let rng = Prng.Stream.named ~name:"bench-hotpath" ~seed:1 in
  let point () =
    Geometry.Vec.make2
      (Prng.Dist.uniform rng ~lo:(-10.0) ~hi:10.0)
      (Prng.Dist.uniform rng ~lo:(-10.0) ~hi:10.0)
  in
  (* --- kernel micro: the fused distance ----------------------------- *)
  let pairs = Array.init 512 (fun _ -> (point (), point ())) in
  let kernel_reps = if quick then 200 else 2000 in
  let dist_ns =
    time_per ~repeat:kernel_reps (fun () ->
        Array.fold_left
          (fun acc (u, v) -> acc +. Geometry.Vec.dist u v)
          0.0 pairs)
    /. float_of_int (Array.length pairs) *. 1e9
  in
  (* --- the median on drifting request sets ------------------------- *)
  (* MtC's situation each round: the same requests, each nudged a
     little.  A tight cluster plus far outliers puts the centroid, where
     the iteration starts, far from the median every round. *)
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
  let per_round secs = secs /. float_of_int rounds *. 1e6 in
  let median_cold_us =
    per_round
      (time_per ~repeat:median_reps (fun () ->
           Array.iter (fun pts -> ignore (Geometry.Median.weiszfeld pts)) sets))
  in
  (* --- full engine rounds ------------------------------------------- *)
  let config = MS.Config.make ~d_factor:4.0 ~delta:0.5 () in
  let inst =
    Workloads.Clusters.generate ~dim:2 ~t:256
      (Prng.Stream.named ~name:"bench-inst" ~seed:2)
  in
  let engine_reps = if quick then 3 else 10 in
  let engine_opt_us =
    time_per ~repeat:engine_reps (fun () ->
        MS.Engine.total_cost config MS.Mtc.algorithm inst)
    /. float_of_int (MS.Instance.length inst) *. 1e6
  in
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
  let identity_golden =
    match In_channel.with_open_bin golden In_channel.input_all with
    | exception Sys_error msg ->
      Printf.eprintf "hotpath: cannot read golden file %s (%s)\n" golden msg;
      false
    | expected ->
      String.equal expected (Experiments.Golden.trajectory_string ())
  in
  (* Default-config catalog report, sequential vs parallel harness. *)
  let report_at jobs =
    with_jobs jobs (fun () ->
        Experiments.Catalog.result_to_markdown
          (Experiments.Catalog.run ~quick:true "e1"))
  in
  let identity_report = String.equal (report_at 1) (report_at 2) in
  (* --- render ------------------------------------------------------ *)
  Tables.print
    ~title:"hot-path timings (lower is better)"
    (Tables.create
       ~aligns:[ Tables.Left; Tables.Right ]
       ~header:[ "operation"; "time" ]
       [
         [ "Vec.dist (ns)"; Tables.cell dist_ns ];
         [ Printf.sprintf "median, %d pts (us)" n_pts;
           Tables.cell median_cold_us ];
         [ "engine round (us)"; Tables.cell engine_opt_us ];
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
  Printf.printf "golden trajectory identical   : %b\n" identity_golden;
  Printf.printf "e1 report jobs1 = jobs2       : %b\n%!" identity_report;
  write_record ~report:"hotpath" out
    ([ ("schema", Str "msp-bench-hotpath-v3"); machine (); timing ();
       ("quick", Bool quick);
       ("kernel_dist_fused_ns", Num dist_ns);
       ("median_cold_us", Num median_cold_us);
       ("engine_round_opt_us", Num engine_opt_us) ]
     @ List.concat_map
         (fun (name, (ns, words)) ->
           [ (Printf.sprintf "codec_%s_ns" name, Num ns);
             (Printf.sprintf "codec_%s_minor_words" name, Num words) ])
         codec_rows
     @ [ ("identity_golden_trajectory", Bool identity_golden);
         ("identity_report_jobs1_vs_jobs2", Bool identity_report) ]);
  if not (identity_golden && identity_report) then begin
    prerr_endline
      "FATAL: hot-path rewrite is not byte-identical to the baseline";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Offline-solver benchmark: the packed Line_dp core and the OPT memo
   cache, plus the identity checks — boxed vs packed, cached vs
   uncached, jobs=1 vs jobs=2, the disk round trip — that prove the
   cache changed no science.  Line_dp's own bits are held by
   test_offline (the line_dp_v1.txt golden and the naive window-scan
   property).  JSON lands in BENCH_solver.json (or --solver-out PATH). *)

let run_solver ~quick ~out () =
  print_endline "\n=== SOLVER: packed Line_dp, OPT cache, identity ===\n";
  let config = MS.Config.make ~d_factor:4.0 ~delta:0.5 () in
  let line_gen ~t rng =
    Workloads.Clusters.generate ~r_min:2 ~r_max:2 ~arena:10.0 ~dim:1 ~t rng
  in
  (* --- cold single solve ------------------------------------------- *)
  let solve_t = if quick then 512 else 2000 in
  let inst =
    line_gen ~t:solve_t (Prng.Stream.named ~name:"bench-solver" ~seed:1)
  in
  let solve_reps = if quick then 5 else 15 in
  let packed_ms =
    time_per ~repeat:solve_reps (fun () ->
        Offline.Line_dp.optimum config inst)
    *. 1e3
  in
  (* Identity: the boxed entry and the packed core agree bit for bit
     across several instances. *)
  let identity_packed_vs_boxed =
    List.for_all
      (fun seed ->
        let inst =
          line_gen ~t:(if quick then 64 else 128)
            (Prng.Stream.named ~name:"bench-solver-id" ~seed)
        in
        bit_eq
          (Offline.Line_dp.optimum config inst)
          (Offline.Line_dp.optimum_packed config (MS.Instance.pack inst)))
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  (* --- cached sweep: cold vs warm, jobs=1 vs jobs=2 ----------------- *)
  let sweep_seeds = if quick then 6 else 16 in
  let sweep_t = if quick then 128 else 256 in
  let sweep () =
    Experiments.Ratio.vs_line_dp ~seeds:sweep_seeds ~base_seed:11
      ~name:"bench-opt-cache" config MS.Mtc.algorithm (line_gen ~t:sweep_t)
  in
  let cold_s, warm_s, sweep_cold, sweep_warm, sweep_uncached =
    with_jobs 1 (fun () ->
        Offline.Opt_cache.clear ();
        Offline.Opt_cache.reset_stats ();
        (* Only the first pass meets a cold cache: one timed call. *)
        let cold_s, sweep_cold = timed sweep in
        let sweep_warm = sweep () in
        let warm_s = time_per ~repeat:(if quick then 5 else 15) sweep in
        (* Uncached pass: the cache bypassed entirely, same jobs count. *)
        Offline.Opt_cache.set_enabled false;
        let sweep_uncached = sweep () in
        Offline.Opt_cache.set_enabled true;
        (cold_s, warm_s, sweep_cold, sweep_warm, sweep_uncached))
  in
  let warm_speedup = cold_s /. warm_s in
  (* jobs=2 from a cold cache, then warm. *)
  let sweep_j2_cold, sweep_j2_warm =
    with_jobs 2 (fun () ->
        Offline.Opt_cache.clear ();
        let cold = sweep () in
        (cold, sweep ()))
  in
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
       ~aligns:[ Tables.Left; Tables.Right ]
       ~header:[ "operation"; "time" ]
       [
         [ Printf.sprintf "line-dp solve, T=%d (ms)" solve_t;
           Tables.cell packed_ms ];
         [ Printf.sprintf "ratio sweep, %d seeds, cold (s)" sweep_seeds;
           Tables.cell cold_s ];
         [ Printf.sprintf "ratio sweep, %d seeds, warm (s)" sweep_seeds;
           Tables.cell warm_s ];
       ]);
  Printf.printf "cache stats                    : %d hits, %d misses, %d disk\n"
    stats.Offline.Opt_cache.hits stats.Offline.Opt_cache.misses
    stats.Offline.Opt_cache.disk_hits;
  Printf.printf "boxed = packed                 : %b\n"
    identity_packed_vs_boxed;
  Printf.printf "cached = uncached              : %b\n"
    identity_cached_vs_uncached;
  Printf.printf "jobs1 = jobs2 (cold and warm)  : %b\n" identity_jobs1_vs_jobs2;
  Printf.printf "disk round trip                : %b\n%!"
    identity_disk_roundtrip;
  write_record ~report:"solver" out
    [ ("schema", Str "msp-bench-solver-v2"); ("quick", Bool quick);
      machine (); timing ~one_pass:"sweep_cold_s" ();
      ("line_dp_rounds", Int solve_t);
      ("line_dp_packed_ms", Num packed_ms);
      ("sweep_seeds", Int sweep_seeds);
      ("sweep_cold_s", Num cold_s);
      ("sweep_warm_s", Num warm_s);
      ("cache_warm_speedup", Num warm_speedup);
      ("cache_hits", Int stats.Offline.Opt_cache.hits);
      ("cache_misses", Int stats.Offline.Opt_cache.misses);
      ("cache_disk_hits", Int stats.Offline.Opt_cache.disk_hits);
      ("identity_packed_vs_boxed", Bool identity_packed_vs_boxed);
      ("identity_cached_vs_uncached", Bool identity_cached_vs_uncached);
      ("identity_jobs1_vs_jobs2", Bool identity_jobs1_vs_jobs2);
      ("identity_disk_roundtrip", Bool identity_disk_roundtrip) ];
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
   plus the identity checks for lazy rows, the OPT cache and the jobs
   count.  The table's and the DP's own bits are held by test_network
   (the network_v1.txt golden).  JSON lands in BENCH_network.json (or
   --network-out). *)

let run_network ~quick ~out () =
  print_endline "\n=== NETWORK: CSR graphs, unboxed Dijkstra, PM optima ===\n";
  let n = if quick then 120 else 400 in
  let t_len = if quick then 64 else 256 in
  let d = 4.0 in
  let rng = Prng.Stream.named ~name:"bench-network" ~seed:1 in
  let graph, _layout = Network.Graph.random_geometric ~n rng in
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
  let ap_csr_ms =
    time_per ~repeat:ap_reps (fun () -> Network.Dijkstra.all_pairs graph)
    *. 1e3
  in
  let metric = Network.Dijkstra.all_pairs graph in
  (* --- per-query distance ------------------------------------------ *)
  let queries = if quick then 20_000 else 100_000 in
  let qu = Array.init queries (fun _ -> Prng.Xoshiro.next_below rng n) in
  let qv = Array.init queries (fun _ -> Prng.Xoshiro.next_below rng n) in
  let query_reps = if quick then 20 else 50 in
  let query_csr_ns =
    time_per ~repeat:query_reps (fun () ->
        let acc = ref 0.0 in
        for i = 0 to queries - 1 do
          acc := !acc +. Network.Dijkstra.distance metric qu.(i) qv.(i)
        done;
        !acc)
    /. float_of_int queries *. 1e9
  in
  (* --- offline DP solve -------------------------------------------- *)
  let dp_reps = if quick then 2 else 3 in
  let dp_csr_ms =
    time_per ~repeat:dp_reps (fun () ->
        Network.Pm_offline.solve metric ~d_factor:d inst)
    *. 1e3
  in
  (* --- identity: the science did not move --------------------------- *)
  let flat = Network.Dijkstra.dense_table metric in
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
  let sol = Network.Pm_offline.solve metric ~d_factor:d inst in
  (* Cached optimum: cold miss, warm hits, both equal to the direct
     solve bit for bit.  Only the first call meets a cold cache: one
     timed call. *)
  Offline.Opt_cache.reset_stats ();
  let cached () =
    Network.Pm_offline.optimum_cached ~graph metric ~d_factor:d inst
  in
  let cache_cold_s, cached_cold = timed cached in
  let cached_warm = cached () in
  let cache_warm_s = time_per ~repeat:(if quick then 20 else 50) cached in
  let cache_stats = Offline.Opt_cache.stats () in
  let identity_cached =
    bit_eq cached_cold sol.Network.Pm_offline.cost
    && bit_eq cached_warm sol.Network.Pm_offline.cost
    && cache_stats.Offline.Opt_cache.hits > 0
  in
  (* jobs=2 must reproduce the jobs=1 table and DP bit for bit. *)
  let metric_j2, sol_j2 =
    with_jobs 2 (fun () ->
        let metric_j2 = Network.Dijkstra.all_pairs graph in
        (metric_j2, Network.Pm_offline.solve metric_j2 ~d_factor:d inst))
  in
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
       ~aligns:[ Tables.Left; Tables.Right ]
       ~header:[ "operation"; "time" ]
       [
         [ Printf.sprintf "all-pairs, n=%d (ms)" n; Tables.cell ap_csr_ms ];
         [ "distance query (ns)"; Tables.cell query_csr_ns ];
         [ Printf.sprintf "PM offline DP, T=%d (ms)" t_len;
           Tables.cell dp_csr_ms ];
         [ "cached PM optimum, cold (ms)"; Tables.cell (cache_cold_s *. 1e3) ];
         [ "cached PM optimum, warm (ms)"; Tables.cell (cache_warm_s *. 1e3) ];
       ]);
  Printf.printf "lazy = dense                  : %b\n" identity_lazy;
  Printf.printf "cached = uncached             : %b\n" identity_cached;
  Printf.printf "jobs1 = jobs2                 : %b\n%!" identity_jobs;
  write_record ~report:"network" out
    [ ("schema", Str "msp-bench-network-v2"); machine ();
      timing ~one_pass:"pm_cache_cold_ms" ();
      ("quick", Bool quick);
      ("nodes", Int n);
      ("edges", Int edge_count);
      ("rounds", Int t_len);
      ("allpairs_csr_ms", Num ap_csr_ms);
      ("query_csr_ns", Num query_csr_ns);
      ("pm_dp_csr_ms", Num dp_csr_ms);
      ("pm_cache_cold_ms", Num (cache_cold_s *. 1e3));
      ("pm_cache_warm_ms", Num (cache_warm_s *. 1e3));
      ("identity_lazy_vs_dense", Bool identity_lazy);
      ("identity_cached_vs_uncached", Bool identity_cached);
      ("identity_jobs1_vs_jobs2", Bool identity_jobs) ];
  if not (identity_lazy && identity_cached && identity_jobs) then begin
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
  write_record ~report:"serve" out
    [ ("schema", Str "msp-bench-serve-v3"); machine ();
      ("quick", Bool quick);
      ("jobs", Int jobs);
      ("shards", Int shards);
      ("dim", Int dim);
      ( "scales",
        Rows
          (List.map
             (fun r ->
               Obj
                 ([ ("mode", Str r.sr_mode);
                    ("live_target", Int r.sr_scale);
                    ("ticks", Int r.sr_ticks);
                    ("peak_live", Int r.sr_peak);
                    ("sessions", Int r.sr_sessions);
                    ("steps", Int r.sr_steps);
                    ("elapsed_s", Num r.sr_elapsed);
                    ("steps_per_sec", Num r.sr_sps);
                    ("p99_service_latency_ms", Num r.sr_p99_service_ms);
                    ("p99_sojourn_latency_ms", Num r.sr_p99_sojourn_ms);
                    ("schedule_fingerprint", Str r.sr_fingerprint);
                    ("identity_serve_vs_engine", Bool r.sr_id_engine);
                    ("identity_jobs1_vs_jobsN", Bool r.sr_id_jobs) ]
                 @ match r.sr_id_journal with
                   | None -> []
                   | Some b -> [ ("identity_journal_on_vs_off", Bool b) ]))
             rows) ) ];
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

let gc_fields prefix g =
  [ (prefix ^ "_minor_words", Num g.minor_words);
    (prefix ^ "_minor_collections", Int g.minor_gcs);
    (prefix ^ "_major_collections", Int g.major_gcs) ]

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
        (* Every cell pays cold solves — otherwise the first cell warms
           the OPT cache and later cells report a phantom speedup. *)
        Offline.Opt_cache.clear ();
        let (exp_s, result), exp_gc =
          with_jobs jobs (fun () ->
              with_gc_delta (fun () ->
                  timed (fun () -> Experiments.Catalog.run ~quick experiment)))
        in
        let exp_report = Experiments.Catalog.result_to_markdown result in
        Printf.printf
          "jobs=%d   serve %6.2fs (%d minor GCs)   %s %6.2fs (%d minor GCs)\n%!"
          jobs serve_s serve_gc.minor_gcs experiment exp_s exp_gc.minor_gcs;
        (jobs, serve_s, digest, exp_s, exp_report, serve_gc, exp_gc))
      multicore_jobs
  in
  let _, base_serve, base_digest, base_exp, base_report, _, _ =
    List.hd cells
  in
  let speedup base secs = if secs > 0.0 then base /. secs else 1.0 in
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
              Tables.cell (speedup base_serve serve_s);
              Tables.cell exp_s;
              Tables.cell (speedup base_exp exp_s) ])
          cells));
  write_record ~report:"multicore" out
    [ ("schema", Str "msp-bench-multicore-v1"); machine ();
      ("quick", Bool quick);
      ("serve_live_target", Int scale);
      ("experiment", Str experiment);
      ("identical_output", Bool identical);
      ( "cells",
        Rows
          (List.map
             (fun (jobs, serve_s, digest, exp_s, _, serve_gc, exp_gc) ->
               Obj
                 ([ ("jobs", Int jobs);
                    ("serve_seconds", Num serve_s);
                    ("serve_speedup", Num (speedup base_serve serve_s));
                    ("experiment_seconds", Num exp_s);
                    ("experiment_speedup", Num (speedup base_exp exp_s)) ]
                 @ gc_fields "serve" serve_gc
                 @ gc_fields "experiment" exp_gc
                 @ [ ("serve_reply_digest", Str digest) ]))
             cells) ) ];
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
    with_jobs jobs (fun () ->
        (* Both runs pay cold solves — otherwise the jobs=1 run warms
           the OPT cache and the jobs=N run reports a phantom speedup. *)
        Offline.Opt_cache.clear ();
        let secs, result =
          timed (fun () -> Experiments.Catalog.run ~quick id)
        in
        (secs, Experiments.Catalog.result_to_markdown result))
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
  write_record ~report:"parallel scaling" out
    [ ("schema", Str "msp-bench-parallel-v1"); machine ();
      ("jobs", Int jobs);
      ("quick", Bool quick);
      ("default_jobs", Int (Exec.default_jobs ()));
      ( "experiments",
        Rows
          (List.map
             (fun (id, s1, sn, speedup, identical) ->
               Obj
                 [ ("id", Str id);
                   ("seconds_jobs1", Num s1);
                   ("seconds_jobsN", Num sn);
                   ("speedup", Num speedup);
                   ("identical_output", Bool identical) ])
             rows) ) ];
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
  let all_bit_eq a b =
    Array.length a = Array.length b && Array.for_all2 bit_eq a b
  in
  let config = MS.Config.make ~d_factor:2.0 ~move_limit:1.0 ~delta:0.5 () in
  let gen ?hotspots ?r_min ?r_max ~t seed =
    Workloads.Hotspots.generate ?hotspots ?r_min ?r_max ~dim:2 ~t
      (Prng.Stream.named ~name:"bench-fleet" ~seed)
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
  let timed_sweep jobs =
    with_jobs jobs (fun () ->
        Offline.Opt_cache.clear ();
        timed sweep)
  in
  let j1_s, sweep_j1 = timed_sweep 1 in
  let j2_s, sweep_j2 = timed_sweep 2 in
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
  write_record ~report:"fleet" out
    [ ("schema", Str "msp-bench-fleet-v2"); machine ();
      ("quick", Bool quick);
      ( "flow",
        Rows
          (List.map
             (fun (k, n, ms, opt) ->
               Obj
                 [ ("k", Int k); ("requests", Int n); ("solve_ms", Num ms);
                   ("opt", Num opt) ])
             flow_rows) );
      ( "brute",
        Rows
          (List.map
             (fun (k, n, bms, fms, s, ok) ->
               Obj
                 [ ("k", Int k); ("requests", Int n); ("brute_ms", Num bms);
                   ("flow_ms", Num fms); ("speedup", Num s);
                   ("identical", Bool ok) ])
             brute_rows) );
      ("flow_cold_ms", Num (cold_s *. 1e3));
      ("flow_warm_ms", Num (warm_s *. 1e3));
      ("cache_warm_speedup", Num (cold_s /. warm_s));
      ("sweep_seeds", Int sweep_seeds);
      ("sweep_jobs1_s", Num j1_s);
      ("sweep_jobs2_s", Num j2_s);
      ("identity_flow_vs_brute", Bool identity_flow_vs_brute);
      ("identity_cached_vs_uncached", Bool identity_cached_vs_uncached);
      ("identity_jobs1_vs_jobs2", Bool identity_jobs1_vs_jobs2) ];
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
     Out_channel.with_open_text path (fun oc ->
         Out_channel.output_string oc
           (Experiments.Catalog.report_markdown (List.rev !results)));
     Printf.printf "markdown report written to %s\n" path);
  Printf.printf "\nAll done in %.1fs.\n" (Unix.gettimeofday () -. t0)
