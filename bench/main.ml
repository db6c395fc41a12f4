(* Benchmark and reproduction harness.

   Usage:
     dune exec bench/main.exe                 -- every catalog experiment
     dune exec bench/main.exe -- e1 e4        -- selected experiments
     dune exec bench/main.exe -- --quick ...  -- reduced horizons/seeds; a
                                                 mode's JSON then goes to
                                                 BENCH_<mode>.quick.json
     dune exec bench/main.exe -- --jobs 4 ... -- worker domains for sweeps
     dune exec bench/main.exe -- hotpath      -- Vec.dist, the median,
                                                 engine rounds and the
                                                 frame codec, gated on
                                                 the golden trajectory and
                                                 jobs1 = jobs2 (JSON to
                                                 BENCH_hotpath.json)
     dune exec bench/main.exe -- solver       -- Line_dp solve and the OPT
                                                 cache, gated on
                                                 cached = uncached,
                                                 jobs1 = jobs2 and the disk
                                                 round trip (JSON to
                                                 BENCH_solver.json)
     dune exec bench/main.exe -- network      -- all-pairs Dijkstra, distance
                                                 queries, the PM offline DP
                                                 and its cache, gated on
                                                 cached = uncached and
                                                 jobs1 = jobs2 (JSON to
                                                 BENCH_network.json)
     dune exec bench/main.exe -- serve        -- sharded session daemon under
                                                 an open-world schedule at
                                                 10k/100k live sessions plus a
                                                 1M-live streaming point, gated
                                                 on serve = engine,
                                                 jobs1 = jobsN and
                                                 journal on = off
                                                 byte-identity (JSON to
                                                 BENCH_serve.json)
     dune exec bench/main.exe -- multicore    -- one serve schedule and the
                                                 e4, e9 and t1 experiments at
                                                 jobs=1/2/4/8, identity-gated
                                                 (JSON to BENCH_multicore.json)
     dune exec bench/main.exe -- fleet        -- the min-cost-flow relaxation
                                                 OPT at k = 10/100/1000, vs
                                                 brute force and the OPT
                                                 cache, the WFA step per
                                                 request, gated on
                                                 flow = brute,
                                                 cached = cold and
                                                 jobs1 = jobsN byte-identity
                                                 (JSON to BENCH_fleet.json)

   Each experiment regenerates one reproduction target (a theorem of the
   paper; see DESIGN.md §4 and EXPERIMENTS.md) and prints its tables.
   Each mode prints the record it writes, and exits 1 when one of the
   record's gates is false, naming the gate on stderr. *)

module MS = Mobile_server

(* ------------------------------------------------------------------ *)
(* Bench records and shared helpers.                                   *)

(* A bench record's values.  Numbers print as %d or %.6g and strings
   as %S; an [Obj] prints inline on one line, and a [Rows] array puts
   one element a line.  A [Gate] prints as a [Bool] does; the mode's
   exit code depends on it (see [write_record]). *)
type value =
  | Int of int
  | Num of float
  | Bool of bool
  | Gate of bool
  | Str of string
  | Obj of (string * value) list
  | Rows of value list

let rec inline = function
  | Int i -> string_of_int i
  | Num x -> Printf.sprintf "%.6g" x
  | Bool b | Gate b -> string_of_bool b
  | Str s -> Printf.sprintf "%S" s
  | Obj fields ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (inline v)) fields)
    ^ "}"
  | Rows rows -> "[" ^ String.concat ", " (List.map inline rows) ^ "]"

(* The paths of the false gates under [v], in record order: a field
   of an [Obj] adds [.name], an element of [Rows] adds [[i]]. *)
let rec failed_gates path = function
  | Gate false -> [ path ]
  | Obj fields ->
    List.concat_map
      (fun (k, v) -> failed_gates (if path = "" then k else path ^ "." ^ k) v)
      fields
  | Rows rows ->
    List.concat
      (List.mapi
         (fun i v -> failed_gates (Printf.sprintf "%s[%d]" path i) v)
         rows)
  | Int _ | Num _ | Bool _ | Gate true | Str _ -> []

(* Writes a record to [path], one top-level field a line, and prints
   the same text on stdout: the record is the mode's report.  Then
   exits 1, naming each false gate on stderr, if the record has one. *)
let write_record path fields =
  let render = function
    | Rows rows ->
      "[\n"
      ^ String.concat ",\n" (List.map (fun r -> "    " ^ inline r) rows)
      ^ "\n  ]"
    | v -> inline v
  in
  let field (k, v) = Printf.sprintf "  %S: %s" k (render v) in
  let text =
    Printf.sprintf "{\n%s\n}\n" (String.concat ",\n" (List.map field fields))
  in
  Out_channel.with_open_text path (fun oc -> output_string oc text);
  Printf.printf "%s(written to %s)\n%!" text path;
  match failed_gates "" (Obj fields) with
  | [] -> ()
  | failed ->
    List.iter (Printf.eprintf "bench: gate %s is false\n") failed;
    exit 1

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
   BENCH_hotpath.json. *)

let run_hotpath ~quick ~out () =
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
  let golden = Experiments.Golden.golden_path in
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
  write_record out
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
     @ [ ("identity_golden_trajectory", Gate identity_golden);
         ("identity_report_jobs1_vs_jobs2", Gate identity_report) ])

(* ------------------------------------------------------------------ *)
(* Offline-solver benchmark: the Line_dp solve and the OPT memo cache,
   plus the identity checks — cached vs uncached, jobs=1 vs jobs=2,
   the disk round trip — that prove the cache changed no science.
   Line_dp's own bits are held by test_offline (the line_dp_v1.txt
   golden and the naive window-scan property).  JSON lands in
   BENCH_solver.json. *)

let run_solver ~quick ~out () =
  print_endline "\n=== SOLVER: Line_dp, OPT cache, identity ===\n";
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
  (* --- cached sweep: cold vs warm, jobs=1 vs jobs=2 ----------------- *)
  let sweep_seeds = if quick then 6 else 16 in
  let sweep_t = if quick then 128 else 256 in
  let sweep () =
    Experiments.Ratio.vs_opt ~seeds:sweep_seeds ~base_seed:11
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
  (* A fresh directory, removed afterwards, so the counts below never
     depend on entries an earlier run left behind. *)
  let disk_dir = Filename.temp_dir "msp-bench-solver-" "" in
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
  Array.iter
    (fun f -> Sys.remove (Filename.concat disk_dir f))
    (Sys.readdir disk_dir);
  Sys.rmdir disk_dir;
  let identity_disk_roundtrip =
    bit_eq from_solve from_disk
    && after_disk.Offline.Opt_cache.disk_hits
       > before_disk.Offline.Opt_cache.disk_hits
  in
  let stats = Offline.Opt_cache.stats () in
  write_record out
    [ ("schema", Str "msp-bench-solver-v3"); ("quick", Bool quick);
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
      ("identity_cached_vs_uncached", Gate identity_cached_vs_uncached);
      ("identity_jobs1_vs_jobs2", Gate identity_jobs1_vs_jobs2);
      ("identity_disk_roundtrip", Gate identity_disk_roundtrip) ]

(* ------------------------------------------------------------------ *)
(* Network benchmark: the CSR graph stack — unboxed Dijkstra into one
   flat metric table and the flat-row Page Migration DP — plus the
   identity checks for the OPT cache and the jobs count.  The table's and the DP's own bits are held by test_network
   (the network_v1.txt golden).  JSON lands in BENCH_network.json. *)

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
    let flat = Network.Dijkstra.dense_table metric in
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
  write_record out
    [ ("schema", Str "msp-bench-network-v3"); machine ();
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
      ("identity_cached_vs_uncached", Gate identity_cached);
      ("identity_jobs1_vs_jobs2", Gate identity_jobs) ]

(* ------------------------------------------------------------------ *)
(* Serve: the sharded session daemon under an open-world schedule, at
   two live-session scales on a journaled daemon plus one streaming
   scale point on an unjournaled one.  Throughput and p99 step latency
   are reported, but the numbers only count if the identity wall holds:
   every step reply's position, costs and clamp flag bit-identical to an
   in-process Engine.run_stream replay, the jobs=1 reply stream
   byte-identical to jobs=N, and (at the smallest scale) journal on
   byte-identical to journal off. *)

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
  (* One scale row, measured on the jobs=N run [report_n]; [journal]
     holds the journal on = off gate where the row has one (an
     unjournaled twin of a journaled scale: reply digests equal). *)
  let row_of ~mode ~scale ~ticks ~fingerprint ~journal (report_n, elapsed)
      report_1 =
    let open Serve.Driver in
    List.iter
      (fun m -> Printf.printf "  mismatch: %s\n" m)
      (report_n.mismatches @ report_1.mismatches);
    Obj
      ([ ("mode", Str mode);
         ("live_target", Int scale);
         ("ticks", Int ticks);
         ("peak_live", Int report_n.peak_live);
         ("sessions", Int report_n.sessions);
         ("steps", Int report_n.steps);
         ("elapsed_s", Num elapsed);
         ("steps_per_sec", Num (float_of_int report_n.steps /. elapsed));
         ("p99_service_latency_ms", Num (p99_ms report_n.service_latencies));
         ("p99_sojourn_latency_ms", Num (p99_ms report_n.latencies));
         ("schedule_fingerprint", Str fingerprint);
         ("identity_serve_vs_engine", Gate (ok report_n && ok report_1));
         ( "identity_jobs1_vs_jobsN",
           Gate (String.equal report_n.reply_digest report_1.reply_digest) ) ]
      @ journal)
  in
  let measure scale =
    (* initial = scale with arrivals balancing departures keeps the
       live count pinned near [scale] for the whole horizon. *)
    let spec = spec_at ~scale ~ticks ~lifetime in
    let timed_n = serve spec ~journal:true ~jobs ~timed:true in
    let report_1, _ = serve spec ~journal:true ~jobs:1 ~timed:false in
    (* Journal on ≡ off at the smallest scale: replies depend only on
       the frames, so the chained reply digests must match. *)
    let journal =
      if scale = List.hd scales then begin
        let off, _ = serve spec ~journal:false ~jobs ~timed:false in
        [ ( "identity_journal_on_vs_off",
            Gate
              (String.equal off.Serve.Driver.reply_digest
                 (fst timed_n).Serve.Driver.reply_digest
              && Serve.Driver.ok off) ) ]
      end
      else []
    in
    row_of ~mode:"journaled" ~scale ~ticks
      ~fingerprint:
        (Workloads.Open_world.fingerprint (Workloads.Open_world.of_spec spec))
      ~journal timed_n report_1
  in
  let measure_stream () =
    (* Long lifetimes pin every initial session for the whole horizon;
       the plans are never materialized, so the fingerprint is elided
       (it would cost the very allocation the point exists to avoid). *)
    let spec = spec_at ~scale:stream_scale ~ticks:stream_ticks ~lifetime:1e6 in
    let timed_n = serve spec ~journal:false ~jobs ~timed:true in
    let report_1, _ = serve spec ~journal:false ~jobs:1 ~timed:false in
    row_of ~mode:"unjournaled" ~scale:stream_scale ~ticks:stream_ticks
      ~fingerprint:"" ~journal:[] timed_n report_1
  in
  let rows = List.map measure scales @ [ measure_stream () ] in
  write_record out
    [ ("schema", Str "msp-bench-serve-v3"); machine ();
      ("quick", Bool quick);
      ("jobs", Int jobs);
      ("shards", Int shards);
      ("dim", Int dim);
      ("scales", Rows rows) ]

(* ------------------------------------------------------------------ *)
(* Multicore matrix: the same fixed work at jobs = 1/2/4/8 — a serve
   schedule (shard-drain parallelism) and the e4, e9 and t1 experiments
   (Exec-pooled sweeps) — recording wall clock and GC work per cell and
   gating on byte-identical output across the whole matrix (the Exec
   determinism contract).  Speedups are honest for whatever box runs
   this: on a single hardware thread they hover around 1x. *)

let multicore_jobs = [ 1; 2; 4; 8 ]
let multicore_experiments = [ "e4"; "e9"; "t1" ]

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
  print_endline "\n=== MULTICORE: jobs=1/2/4/8 matrix ===\n";
  let config = MS.Config.make ~d_factor:2.0 ~move_limit:1.0 ~delta:0.5 () in
  let scale = if quick then 1_000 else 20_000 in
  let spec =
    Workloads.Open_world.spec ~arrival_rate:(float_of_int scale /. 16.0)
      ~mean_lifetime:16.0 ~initial:scale ~dim:2 ~seed:(43_000 + scale)
      ~ticks:12 ()
  in
  (* One cell: the serve run, then each experiment, as (name, seconds,
     GC work, output); the outputs are the reply digest and the
     rendered reports. *)
  let cell jobs =
    let daemon = Serve.Daemon.create ~shards:8 ~jobs ~config () in
    let (serve_s, digest), serve_gc =
      with_gc_delta (fun () ->
          Fun.protect
            ~finally:(fun () -> Serve.Daemon.shutdown daemon)
            (fun () ->
              timed (fun () ->
                  (Serve.Driver.run daemon spec).Serve.Driver.reply_digest)))
    in
    let experiment id =
      (* Every run pays cold solves — otherwise an earlier run warms the
         OPT cache and a later cell reports a phantom speedup. *)
      Offline.Opt_cache.clear ();
      let (secs, result), gc =
        with_jobs jobs (fun () ->
            with_gc_delta (fun () ->
                timed (fun () -> Experiments.Catalog.run ~quick id)))
      in
      (id, secs, gc, Experiments.Catalog.result_to_markdown result)
    in
    (jobs, ("serve", serve_s, serve_gc, digest)
           :: List.map experiment multicore_experiments)
  in
  let cells = List.map cell multicore_jobs in
  let base = snd (List.hd cells) in
  let output (_, _, _, o) = o in
  let identical =
    List.for_all
      (fun (_, parts) ->
        List.equal String.equal (List.map output parts) (List.map output base))
      cells
  in
  let speedup base secs = if secs > 0.0 then base /. secs else 1.0 in
  let row (jobs, parts) =
    Obj
      ((("jobs", Int jobs)
        :: List.concat
             (List.map2
                (fun (name, secs, gc, _) (_, base_s, _, _) ->
                  (name ^ "_seconds", Num secs)
                  :: (name ^ "_speedup", Num (speedup base_s secs))
                  :: gc_fields name gc)
                parts base))
      @ [ ("serve_reply_digest", Str (output (List.hd parts))) ])
  in
  write_record out
    [ ("schema", Str "msp-bench-multicore-v2"); machine ();
      ("quick", Bool quick);
      ("serve_live_target", Int scale);
      ("experiments", Str (String.concat "," multicore_experiments));
      ("identical_output", Gate identical);
      ("cells", Rows (List.map row cells)) ]

(* ------------------------------------------------------------------ *)
(* Fleet benchmark: the min-cost-flow relaxation optimum vs brute-force
   enumeration and the OPT cache, one flow run for every k against one
   per k, the WFA step, and the jobs=1 vs jobs=N sweep — the flow,
   frontier and sweep rows gated on bitwise identity.  JSON lands in
   BENCH_fleet.json. *)

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
  (* --- the WFA step on perfbench fleet-f1's shape ------------------- *)
  (* ns and minor words per request of Fleet_wfa.run (create included)
     at the default beam, over 3-hotspot 2-D instances with T = 40. *)
  let wfa_insts =
    Array.init (if quick then 4 else 16) (fun i -> gen ~t:40 (3000 + i))
  in
  let wfa_requests =
    Array.fold_left
      (fun n inst ->
        Array.fold_left (fun n r -> n + Array.length r) n inst.MS.Instance.steps)
      0 wfa_insts
  in
  let wfa_rows =
    List.map
      (fun k ->
        let pass () =
          Array.iter
            (fun inst -> ignore (Multi.Fleet_wfa.run ~k config inst))
            wfa_insts
        in
        let ns =
          time_per ~repeat:(if quick then 3 else 10) pass *. 1e9
          /. float_of_int wfa_requests
        in
        let w0 = Gc.minor_words () in
        pass ();
        (k, ns, (Gc.minor_words () -. w0) /. float_of_int wfa_requests))
      [ 2; 3; 4 ]
  in
  (* --- one flow run for every k, on the same f1-shaped instances ----- *)
  (* ms per instance of three Fleet_flow.solve calls at the k that
     fleet-f1 prices against one Fleet_flow.frontier ~k:2, whose entries
     must be the three solves' costs bit for bit (the last entry also
     answers every larger k). *)
  let frontier_ks = [| 2; 3; 4 |] in
  let flow_inputs =
    Array.map
      (fun inst ->
        ( inst.MS.Instance.start,
          Array.concat (Array.to_list inst.MS.Instance.steps) ))
      wfa_insts
  in
  let per_k () =
    Array.map
      (fun (start, requests) ->
        Array.map
          (fun k -> fst (Multi.Fleet_flow.solve ~d_factor ~start ~requests ~k))
          frontier_ks)
      flow_inputs
  in
  let one_run () =
    Array.map
      (fun (start, requests) ->
        Multi.Fleet_flow.frontier ~d_factor ~start ~requests ~k:frontier_ks.(0))
      flow_inputs
  in
  let identity_frontier_vs_solve =
    Array.for_all2
      (fun solved costs ->
        let last = Array.length costs - 1 in
        all_bit_eq solved
          (Array.init (Array.length solved) (fun i -> costs.(Stdlib.min i last))))
      (per_k ()) (one_run ())
  in
  let per_instance_ms f =
    time_per ~repeat:(if quick then 2 else 5) f *. 1e3
    /. float_of_int (Array.length wfa_insts)
  in
  let solves_ms = per_instance_ms per_k in
  let frontier_ms = per_instance_ms one_run in
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
  write_record out
    [ ("schema", Str "msp-bench-fleet-v4"); machine ();
      timing
        ~one_pass:
          "flow solve_ms, brute_ms, flow_ms, flow_cold_ms, flow_warm_ms, \
           sweep_jobs1_s, sweep_jobs2_s"
        ();
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
                   ("identical", Gate ok) ])
             brute_rows) );
      ( "frontier",
        Obj
          [ ("ks", Str "2,3,4"); ("instances", Int (Array.length wfa_insts));
            ("solves_ms", Num solves_ms); ("frontier_ms", Num frontier_ms);
            ("speedup", Num (solves_ms /. frontier_ms));
            ("identical", Gate identity_frontier_vs_solve) ] );
      ( "wfa",
        Rows
          (List.map
             (fun (k, ns, words) ->
               Obj
                 [ ("k", Int k); ("beam", Int Multi.Fleet_wfa.default_beam);
                   ("requests", Int wfa_requests); ("ns_per_request", Num ns);
                   ("minor_words_per_request", Num words) ])
             wfa_rows) );
      ("flow_cold_ms", Num (cold_s *. 1e3));
      ("flow_warm_ms", Num (warm_s *. 1e3));
      ("cache_warm_speedup", Num (cold_s /. warm_s));
      ("sweep_seeds", Int sweep_seeds);
      ("sweep_jobs1_s", Num j1_s);
      ("sweep_jobs2_s", Num j2_s);
      ("identity_flow_vs_brute", Gate identity_flow_vs_brute);
      ("identity_frontier_vs_solve", Gate identity_frontier_vs_solve);
      ("identity_cached_vs_uncached", Gate identity_cached_vs_uncached);
      ("identity_jobs1_vs_jobs2", Gate identity_jobs1_vs_jobs2) ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  (* Optional: --markdown <path> writes the whole report as Markdown. *)
  let markdown_path = ref None in
  (* A --quick record never replaces a committed full-mode one. *)
  let out mode = "BENCH_" ^ mode ^ if quick then ".quick.json" else ".json" in
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
    | arg :: rest -> arg :: strip rest
  in
  let args = strip args in
  let wanted = if args = [] then Experiments.Catalog.ids else args in
  let t0 = Unix.gettimeofday () in
  let results = ref [] in
  List.iter
    (fun id ->
      let started = Unix.gettimeofday () in
      (match id with
       | "hotpath" -> run_hotpath ~quick ~out:(out "hotpath") ()
       | "solver" -> run_solver ~quick ~out:(out "solver") ()
       | "network" -> run_network ~quick ~out:(out "network") ()
       | "serve" -> run_serve ~quick ~out:(out "serve") ()
       | "multicore" -> run_multicore ~quick ~out:(out "multicore") ()
       | "fleet" -> run_fleet ~quick ~out:(out "fleet") ()
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
