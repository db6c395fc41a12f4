(* msp — command-line driver for the Mobile Server Problem library.

   Subcommands:
     msp list                      available algorithms, workloads, experiments
     msp run ...                   one algorithm on one workload
     msp compare ...               every algorithm on one workload
     msp plot ...                  terminal chart of a 1-D run vs the optimum
     msp audit ...                 run one algorithm under the invariant
                                   auditor (feasibility, NaN, determinism)
     msp experiment <id> ...       a catalog experiment (e1..e10, t1, a1..a2,
                                   x1, b1)
     msp serve ...                 the sharded session-serving daemon over
                                   a seeded open-world schedule, verified
                                   bit-for-bit against in-process replays
                                   (--audit adds per-session invariant
                                   audits)
     msp simtest ...               seeded simulation testing: random op
                                   sequences + fault injection (including
                                   serve-daemon shard kills), oracled
                                   against batch replays; failures shrink
                                   to replayable artifacts

   Examples:
     dune exec bin/msp_cli.exe -- run --algorithm mtc --workload clusters \
       --rounds 200 -D 4 --delta 0.5 --opt
     dune exec bin/msp_cli.exe -- experiment e1 --quick *)

module MS = Mobile_server
open Cmdliner

(* --- Shared options ------------------------------------------------- *)

let d_factor =
  Arg.(value & opt float 4.0 & info [ "D"; "d-factor" ] ~docv:"D"
         ~doc:"Movement cost weight $(docv) (>= 1).")

let move_limit =
  Arg.(value & opt float 1.0 & info [ "m"; "move-limit" ] ~docv:"M"
         ~doc:"Per-round movement limit $(docv) of the offline optimum.")

let delta =
  Arg.(value & opt float 0.0 & info [ "delta" ] ~docv:"DELTA"
         ~doc:"Resource augmentation: the online server moves \
               (1+$(docv))·m per round.")

let variant =
  let parse s =
    match MS.Variant.of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown variant %S" s))
  in
  let print ppf v = MS.Variant.pp ppf v in
  Arg.(value
       & opt (conv (parse, print)) MS.Variant.Move_first
       & info [ "variant" ] ~docv:"VARIANT"
           ~doc:"Cost variant: move-first (default) or serve-first.")

let rounds =
  Arg.(value & opt int 200 & info [ "rounds"; "T" ] ~docv:"T"
         ~doc:"Number of rounds.")

let dim =
  Arg.(value & opt int 2 & info [ "dim" ] ~docv:"DIM"
         ~doc:"Dimension of the Euclidean space.")

let seed =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
         ~doc:"PRNG seed; every run is deterministic given the seed.")

let verbose =
  let setup verbose =
    Logs.set_reporter (Logs.format_reporter ());
    Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))
  in
  Term.(const setup
        $ Arg.(value & flag
               & info [ "v"; "verbose" ]
                   ~doc:"Enable solver diagnostics on stderr."))

let config_term =
  let make d m delta variant =
    try Ok (MS.Config.make ~d_factor:d ~move_limit:m ~delta ~variant ())
    with Invalid_argument msg -> Error (`Msg msg)
  in
  Term.(term_result (const make $ d_factor $ move_limit $ delta $ variant))

let opt_cache_setup =
  let setup no_cache dir =
    if no_cache then Offline.Opt_cache.set_enabled false;
    match dir with
    | None -> ()
    | Some d -> Offline.Opt_cache.set_disk_dir (Some d)
  in
  Term.(const setup
        $ Arg.(value & flag
               & info [ "no-opt-cache" ]
                   ~doc:"Disable the offline-optimum memo cache (every \
                         optimum is re-solved).  Cached and uncached runs \
                         are byte-identical; this only trades time.")
        $ Arg.(value & opt (some string) None
               & info [ "opt-cache-dir" ] ~docv:"DIR"
                   ~doc:"Persist offline optima to $(docv) (content-\
                         addressed, one small file per entry) and reuse \
                         them across runs.  Defaults to the \
                         MSP_OPT_CACHE_DIR environment variable; unset \
                         means in-memory only."))

let jobs_setup =
  let setup = function
    | None -> Ok ()
    | Some j ->
      (try Ok (Exec.set_jobs j)
       with Invalid_argument msg -> Error (`Msg msg))
  in
  Term.(term_result
          (const setup
           $ Arg.(value & opt (some int) None
                  & info [ "jobs"; "j" ] ~docv:"N"
                      ~doc:"Worker domains for parallel sweeps (default: \
                            core count minus one).  Results are \
                            bit-identical at any $(docv), including 1.")))

(* --- Workloads ------------------------------------------------------ *)

let workload_names =
  [ "clusters"; "bursts"; "cars"; "random-walk"; "commuter"; "disaster";
    "disaster-single"; "hotspots"; "zipf-content"; "thm1"; "thm2"; "thm3";
    "thm8" ]

let build_workload ~name ~dim ~t ~seed config =
  let rng = Prng.Stream.named ~name:("cli-" ^ name) ~seed in
  match name with
  | "clusters" -> Ok (Workloads.Clusters.generate ~dim ~t rng)
  | "bursts" -> Ok (Workloads.Bursts.generate ~dim ~t rng)
  | "cars" -> Ok (Workloads.Cars.generate ~dim ~t rng)
  | "random-walk" -> Ok (Workloads.Random_walk.generate ~clients:3 ~dim ~t rng)
  | "commuter" -> Ok (Workloads.Commuter.generate ~dim ~t rng)
  | "disaster" -> Ok (Workloads.Disaster.generate ~dim ~t rng)
  | "disaster-single" -> Ok (Workloads.Disaster.generate_single ~dim ~t rng)
  | "hotspots" -> Ok (Workloads.Hotspots.generate ~dim ~t rng)
  | "zipf-content" -> Ok (Workloads.Popular_content.generate ~dim ~t rng)
  | "thm1" ->
    Ok (Adversary.Thm1.generate ~dim ~t config rng).Adversary.Construction
         .instance
  | "thm2" ->
    (try
       Ok
         (Adversary.Thm2.generate ~dim ~r_min:1 ~r_max:2 config rng)
           .Adversary.Construction.instance
     with Invalid_argument msg -> Error (`Msg msg))
  | "thm3" ->
    Ok (Adversary.Thm3.generate ~dim ~r:4 config rng).Adversary.Construction
         .instance
  | "thm8" ->
    (try
       Ok
         (Adversary.Thm8.generate ~dim ~t ~epsilon:0.5 config rng)
           .Adversary.Construction.instance
     with Invalid_argument msg -> Error (`Msg msg))
  | other -> Error (`Msg (Printf.sprintf "unknown workload %S" other))

let workload =
  Arg.(value & opt string "clusters"
       & info [ "workload"; "w" ] ~docv:"NAME"
           ~doc:(Printf.sprintf "Workload family: %s."
                   (String.concat ", " workload_names)))

(* The memo cache makes repeated [--opt] invocations on the same
   instance (and the warm half of a [--opt-cache-dir] workflow) free;
   defaults match the solvers', so cached and direct calls share keys. *)
let compute_opt config inst =
  Offline.Opt_cache.optimum config (MS.Instance.pack inst)

(* --- list ----------------------------------------------------------- *)

let list_cmd =
  let action () =
    print_endline "algorithms (dim >= 2):";
    List.iter (Printf.printf "  %s\n") (Baselines.Registry.names ~dim:2);
    print_endline "algorithms (extra in dim 1):";
    Printf.printf "  work-function\n";
    print_endline "workloads:";
    List.iter (Printf.printf "  %s\n") workload_names;
    print_endline "experiments:";
    List.iter (Printf.printf "  %s\n") Experiments.Catalog.ids
  in
  Cmd.v (Cmd.info "list" ~doc:"List algorithms, workloads and experiments.")
    Term.(const action $ const ())

(* --- run ------------------------------------------------------------ *)

let algorithm_name =
  Arg.(value & opt string "mtc"
       & info [ "algorithm"; "a" ] ~docv:"NAME" ~doc:"Algorithm to run.")

let with_opt =
  Arg.(value & flag
       & info [ "opt" ]
           ~doc:"Also compute the offline optimum and report the ratio.")

let run_cmd =
  let action () () config name wname dim t seed with_opt =
    match Baselines.Registry.find ~dim name with
    | None -> Error (`Msg (Printf.sprintf "unknown algorithm %S" name))
    | Some alg ->
      Result.map
        (fun inst ->
          let rng = Prng.Stream.named ~name:"cli-run" ~seed in
          let run = MS.Engine.run ~rng config alg inst in
          let stats = MS.Instance_stats.compute inst in
          Format.printf "instance : %a@." MS.Instance.pp inst;
          Format.printf "regime   : %s@."
            (MS.Instance_stats.regime
               ~move_limit:(MS.Config.offline_limit config) stats);
          Format.printf "model    : %a@." MS.Config.pp config;
          Format.printf "algorithm: %s@." alg.MS.Algorithm.name;
          Format.printf "cost     : %.4f (movement %.4f + service %.4f)@."
            (MS.Cost.total run.MS.Engine.cost)
            run.MS.Engine.cost.MS.Cost.move run.MS.Engine.cost.MS.Cost.service;
          if with_opt then begin
            let opt = compute_opt config inst in
            Format.printf "optimum  : %.4f@." opt;
            Format.printf "ratio    : %.4f@."
              (MS.Cost.total run.MS.Engine.cost /. opt)
          end)
        (build_workload ~name:wname ~dim ~t ~seed config)
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one algorithm on one workload.")
    Term.(term_result
            (const action $ verbose $ opt_cache_setup $ config_term
             $ algorithm_name $ workload $ dim $ rounds $ seed $ with_opt))

(* --- compare -------------------------------------------------------- *)

let compare_cmd =
  let action () () () config wname dim t seed =
    Result.map
      (fun inst ->
        let opt = compute_opt config inst in
        let rows =
          List.map
            (fun alg ->
              let rng = Prng.Stream.named ~name:"cli-compare" ~seed in
              let cost = MS.Engine.total_cost ~rng config alg inst in
              [ alg.MS.Algorithm.name; Tables.cell cost;
                Tables.cell (cost /. opt) ])
            (Baselines.Registry.all ~dim)
        in
        let table =
          Tables.create
            ~aligns:[ Tables.Left; Tables.Right; Tables.Right ]
            ~header:[ "algorithm"; "cost"; "cost/OPT" ]
            (rows @ [ [ "(offline optimum)"; Tables.cell opt; "1" ] ])
        in
        Tables.print
          ~title:(Printf.sprintf "%s, T = %d, dim = %d" wname t dim)
          table)
      (build_workload ~name:wname ~dim ~t ~seed config)
  in
  Cmd.v (Cmd.info "compare" ~doc:"Run every algorithm on one workload.")
    Term.(term_result
            (const action $ verbose $ opt_cache_setup $ jobs_setup
             $ config_term $ workload $ dim $ rounds $ seed))

(* --- plot ------------------------------------------------------------ *)

let plot_cmd =
  let action () config wname t seed =
    (* 1-D only: chart server trajectories against the request stream. *)
    Result.bind (build_workload ~name:wname ~dim:1 ~t ~seed config)
      (fun inst ->
        if MS.Instance.length inst = 0 then Error (`Msg "empty instance")
        else begin
          let series_of positions =
            Array.map (fun p -> p.(0)) positions
          in
          let mtc_run = MS.Engine.run config MS.Mtc.algorithm inst in
          let opt = Offline.Line_dp.solve config inst in
          let request_track =
            Array.map
              (fun round ->
                if Array.length round = 0 then Float.nan
                else
                  (Geometry.Vec.centroid round).(0))
              inst.MS.Instance.steps
          in
          (* Fill empty rounds with the previous value so the chart is
             total. *)
          let last = ref inst.MS.Instance.start.(0) in
          let request_track =
            Array.map
              (fun x ->
                if Float.is_nan x then !last
                else begin
                  last := x;
                  x
                end)
              request_track
          in
          print_endline
            "requests (.), MtC (*), offline optimum (o) over time:";
          print_string
            (Tables.Ascii_plot.chart
               [ ('.', request_track);
                 ('o', series_of opt.Offline.Line_dp.positions);
                 ('*', series_of mtc_run.MS.Engine.positions) ]);
          Printf.printf "MtC cost %.2f vs OPT %.2f (ratio %.3f)\n"
            (MS.Cost.total mtc_run.MS.Engine.cost)
            opt.Offline.Line_dp.cost
            (MS.Cost.total mtc_run.MS.Engine.cost /. opt.Offline.Line_dp.cost);
          Ok ()
        end)
  in
  Cmd.v
    (Cmd.info "plot"
       ~doc:"Chart a 1-D run (requests, MtC, optimum) in the terminal.")
    Term.(term_result
            (const action $ verbose $ config_term $ workload $ rounds $ seed))

(* --- audit ----------------------------------------------------------- *)

let audit_cmd =
  let strict =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Exit with an error if any invariant violation is found.")
  in
  let no_determinism =
    Arg.(value & flag
         & info [ "no-determinism" ]
             ~doc:"Skip the seed-replay determinism check (saves a second \
                   run on long instances).")
  in
  let action () config name wname dim t seed strict no_determinism =
    match Baselines.Registry.find ~dim name with
    | None -> Error (`Msg (Printf.sprintf "unknown algorithm %S" name))
    | Some alg ->
      Result.bind (build_workload ~name:wname ~dim ~t ~seed config)
        (fun inst ->
          let report, run =
            Analysis.Audit.run ~seed ~check_determinism:(not no_determinism)
              config alg inst
          in
          Format.printf "instance : %a@." MS.Instance.pp inst;
          Format.printf "model    : %a@." MS.Config.pp config;
          Format.printf "%a@." Analysis.Report.pp report;
          Format.printf "cost     : %.4f (movement %.4f + service %.4f)@."
            (MS.Cost.total run.MS.Engine.cost)
            run.MS.Engine.cost.MS.Cost.move run.MS.Engine.cost.MS.Cost.service;
          if strict && not (Analysis.Report.ok report) then
            Error
              (`Msg
                 (Printf.sprintf "audit failed: %d violation(s)"
                    (List.length report.Analysis.Report.violations)))
          else Ok ())
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Run one algorithm under the runtime invariant auditor: \
             proposed-move feasibility, NaN/cost sanity, dimension \
             consistency and seed-replay determinism.")
    Term.(term_result
            (const action $ verbose $ config_term $ algorithm_name
             $ workload $ dim $ rounds $ seed $ strict $ no_determinism))

(* --- experiment ----------------------------------------------------- *)

let experiment_cmd =
  let id =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"ID"
             ~doc:"Experiment id (e1..e10, t1, a1, a2, x1, b1, or 'all').")
  in
  let quick =
    Arg.(value & flag
         & info [ "quick" ] ~doc:"Reduced horizons and seed counts.")
  in
  let action () () () id quick seed =
    try
      if id = "all" then
        List.iter Experiments.Catalog.print_result
          (Experiments.Catalog.run_all ~seed ~quick ())
      else
        Experiments.Catalog.print_result
          (Experiments.Catalog.run ~seed ~quick id);
      Ok ()
    with Invalid_argument msg -> Error (`Msg msg)
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Run a reproduction experiment from the catalog.")
    Term.(term_result
            (const action $ verbose $ opt_cache_setup $ jobs_setup $ id
             $ quick $ seed))

(* --- oracle failures --------------------------------------------------- *)

(* [msp serve] and [msp simtest] exit 1 when an oracle fails (a served
   trajectory diverging from its engine replay, a dirty audit, a failed
   simtest check), so a script can tell that from Cmdliner's 124 for a
   command-line error. *)
let oracle_failed = 1

let oracle_exits doc = Cmd.Exit.info oracle_failed ~doc :: Cmd.Exit.defaults

let fail_oracle msg =
  Printf.eprintf "msp: %s\n%!" msg;
  exit oracle_failed

(* --- serve ----------------------------------------------------------- *)

let serve_cmd =
  let sessions =
    Arg.(value & opt int 1000
         & info [ "sessions" ] ~docv:"N"
             ~doc:"Target live-session count: $(docv) sessions are open at \
                   tick 0 and Poisson arrivals balance departures.")
  in
  let ticks =
    Arg.(value & opt int 24
         & info [ "ticks" ] ~docv:"T"
             ~doc:"Schedule horizon in ticks; every session closes within \
                   it.")
  in
  let lifetime =
    Arg.(value & opt float 16.0
         & info [ "lifetime" ] ~docv:"L"
             ~doc:"Mean session lifetime in ticks (exponential).")
  in
  let shards =
    Arg.(value & opt int 8
         & info [ "shards" ] ~docv:"S"
             ~doc:"Daemon shard count; sessions hash to shards and each \
                   shard owns its sessions exclusively.")
  in
  let audit =
    Arg.(value & flag
         & info [ "audit" ]
             ~doc:"Additionally run every served session's instance under \
                   the invariant auditor and fail unless every report is \
                   clean.")
  in
  let action () () config sessions ticks lifetime shards dim seed audit =
    let spec =
      try
        Ok
          (Workloads.Open_world.spec
             ~arrival_rate:(float_of_int sessions /. lifetime)
             ~mean_lifetime:lifetime ~initial:sessions ~dim ~seed ~ticks ())
      with Invalid_argument msg -> Error (`Msg msg)
    in
    Result.bind spec (fun spec ->
        (* Materialized only for the fingerprint, peak-live and audit
           lines; the driver streams the schedule from [spec]. *)
        let schedule = Workloads.Open_world.of_spec spec in
        let daemon =
          try Ok (Serve.Daemon.create ~shards ~config ())
          with Invalid_argument msg -> Error (`Msg msg)
        in
        Result.bind daemon (fun daemon ->
            let t0 = Unix.gettimeofday () in
            let report =
              Fun.protect
                ~finally:(fun () -> Serve.Daemon.shutdown daemon)
                (fun () ->
                  Serve.Driver.run ~now:Unix.gettimeofday daemon spec)
            in
            let elapsed = Unix.gettimeofday () -. t0 in
            Printf.printf
              "schedule : %d sessions over %d ticks (peak %d live), \
               fingerprint %s\n"
              (Workloads.Open_world.sessions schedule)
              ticks
              (Workloads.Open_world.peak_live schedule)
              (Workloads.Open_world.fingerprint schedule);
            Printf.printf "served   : %d sessions, %d steps in %.2fs \
                           (%.0f steps/s)\n"
              report.Serve.Driver.sessions report.Serve.Driver.steps elapsed
              (float_of_int report.Serve.Driver.steps
              /. Float.max 1e-9 elapsed);
            if Array.length report.Serve.Driver.latencies > 0 then
              Printf.printf "latency  : p50 %.3f ms, p99 %.3f ms\n"
                (1e3
                *. Stats.Quantile.quantile report.Serve.Driver.latencies 0.5)
                (1e3
                *. Stats.Quantile.quantile report.Serve.Driver.latencies 0.99);
            Printf.printf "identity : serve = engine replay %b\n"
              (Serve.Driver.ok report);
            List.iter
              (fun m -> Printf.printf "mismatch : %s\n" m)
              report.Serve.Driver.mismatches;
            let audit_bad =
              if not audit then 0
              else begin
                let plans = Workloads.Open_world.plans schedule in
                let clean =
                  Exec.map
                    (fun plan ->
                      let r, _run =
                        Analysis.Audit.run ~seed:plan.Workloads.Open_world.seed
                          config MS.Mtc.algorithm
                          (Workloads.Open_world.plan_instance schedule plan)
                      in
                      Analysis.Report.ok r)
                    plans
                in
                let bad =
                  Array.fold_left
                    (fun acc ok -> if ok then acc else acc + 1)
                    0 clean
                in
                Printf.printf "audit    : %d sessions audited, %d dirty \
                               report(s)\n"
                  (Array.length plans) bad;
                bad
              end
            in
            if not (Serve.Driver.ok report) then
              fail_oracle "serve output diverged from the in-process engine"
            else if audit_bad > 0 then
              fail_oracle
                (Printf.sprintf "audit found %d dirty report(s)" audit_bad)
            else Ok ()))
  in
  Cmd.v
    (Cmd.info "serve"
       ~exits:
         (oracle_exits
            "when a served trajectory diverges from its engine replay, or \
             $(b,--audit) finds a dirty report.")
       ~doc:"Run the sharded session-serving daemon over a seeded \
             open-world schedule (Poisson arrivals, exponential \
             lifetimes), verify every served trajectory bit-for-bit \
             against an in-process engine replay, and report throughput \
             and step latency.")
    Term.(term_result
            (const action $ verbose $ jobs_setup $ config_term $ sessions
             $ ticks $ lifetime $ shards $ dim $ seed $ audit))

(* --- simtest --------------------------------------------------------- *)

let simtest_cmd =
  let ops_count =
    Arg.(value & opt int 1000
         & info [ "ops" ] ~docv:"N"
             ~doc:"Number of ops to generate from the seed.")
  in
  let replay_file =
    Arg.(value & opt (some file) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Replay a recorded artifact instead of generating ops \
                   from the seed.")
  in
  let out_file =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Where to write the shrunk repro artifact on failure \
                   (default: simtest-repro-SEED.txt).")
  in
  let inject_bug =
    Arg.(value & flag
         & info [ "inject-bug" ]
             ~doc:"Plant a deliberate session bug, then catch and shrink \
                   it — a self-test of the oracle and the shrinker.")
  in
  let inject_audit_bug =
    Arg.(value & flag
         & info [ "inject-audit-bug" ]
             ~doc:"Audit a deliberately budget-violating algorithm: the \
                   audit oracle must flag the clamped proposals and the \
                   failure must shrink — a self-test of the audit \
                   surface.")
  in
  let report r = print_string (Simtest.Harness.result_to_string r) in
  let action () seed ops_count replay_file out_file inject_bug
      inject_audit_bug =
    match replay_file with
    | Some path ->
      let text = In_channel.with_open_bin path In_channel.input_all in
      (match Simtest.Replay.of_string text with
       | Error msg -> Error (`Msg (Printf.sprintf "%s: %s" path msg))
       | Ok (seed, ops) ->
         let r =
           Simtest.Harness.run_ops ~inject_bug ~inject_audit_bug ~seed ops
         in
         report r;
         (match r.Simtest.Harness.outcome with
          | Simtest.Harness.Pass -> Ok ()
          | Simtest.Harness.Fail _ ->
            fail_oracle "simtest replay failed (see verdict above)"))
    | None ->
      let ops = Simtest.Harness.gen_ops ~seed ~count:ops_count () in
      let r =
        Simtest.Harness.run_ops ~inject_bug ~inject_audit_bug ~seed ops
      in
      report r;
      (match r.Simtest.Harness.outcome with
       | Simtest.Harness.Pass -> Ok ()
       | Simtest.Harness.Fail _ ->
         (* Shrink before reporting: the artifact is the deliverable —
            a locally minimal op list that still fails, replayable
            with --replay. *)
         let fails = Simtest.Harness.fails ~inject_bug ~inject_audit_bug ~seed in
         let minimal = Simtest.Shrink.minimize ~fails ops in
         let out =
           match out_file with
           | Some f -> f
           | None -> Printf.sprintf "simtest-repro-%d.txt" seed
         in
         let artifact = Simtest.Replay.to_string ~seed minimal in
         Out_channel.with_open_bin out (fun oc ->
             Out_channel.output_string oc artifact);
         Printf.printf "shrunk to %d op(s), written to %s:\n%s"
           (List.length minimal) out artifact;
         fail_oracle
           (Printf.sprintf
              "simtest failed at seed %d; replay with: msp simtest \
               --replay %s%s"
              seed out
              (if inject_bug then " --inject-bug" else "")
           ^ if inject_audit_bug then " --inject-audit-bug" else ""))
  in
  Cmd.v
    (Cmd.info "simtest"
       ~exits:
         (oracle_exits
            "when an oracle check fails (the shrunk artifact is written \
             first) or a replayed artifact fails.")
       ~doc:"Deterministic simulation testing: generate a seeded op \
             sequence (session steps, cache faults, pool fan-outs, \
             serve-daemon traffic and shard crashes), oracle every answer \
             against batch replays and cold recomputes, and on failure \
             shrink to a minimal replayable artifact.")
    Term.(term_result
            (const action $ verbose $ seed $ ops_count $ replay_file
             $ out_file $ inject_bug $ inject_audit_bug))

let () =
  let info =
    Cmd.info "msp" ~version:"1.0.0"
      ~doc:"The Mobile Server Problem (SPAA 2017) — reproduction toolkit."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; compare_cmd; plot_cmd; audit_cmd;
            experiment_cmd; serve_cmd; simtest_cmd ]))
