(* fleet-f1: the f1 experiment's cells.  Each (instance, k) cell solves
   the exact min-cost-flow relaxation optimum, the feasible upper bound,
   and runs every f1 algorithm through Fleet_engine; it is the only
   workload that exercises lib/multi. *)

open Perfbench
module Config = Mobile_server.Config
module Instance = Mobile_server.Instance
module M = Multi

let ks = [| 2; 3; 4 |]
let config = Config.make ~d_factor:2.0 ~move_limit:1.0 ~delta:0.5 ()
let t_len = 40

(* The WFA's work function and the flow solver sum the same link costs
   in different orders, so "opt_estimate >= flow optimum" holds up to
   rounding: at most 6.6 ulps over 1440 cells of this workload, so the
   check allows 32. *)
let rounding = 32.0 *. epsilon_float

(* Flattened requests in the prefix whose flow optimum is checked
   against exhaustive enumeration: at most 4^8 assignments at k = 4. *)
let brute_prefix = 8

(* The instance's first [brute_prefix] requests, rounds kept. *)
let prefix (inst : Instance.t) =
  let budget = ref brute_prefix in
  let rounds =
    Array.to_list inst.Instance.steps
    |> List.filter_map (fun round ->
           if !budget <= 0 then None
           else begin
             let take = Stdlib.min (Array.length round) !budget in
             budget := !budget - take;
             Some (Array.sub round 0 take)
           end)
  in
  Instance.make ~start:inst.Instance.start (Array.of_list rounds)

(* Instances whose cells are re-solved by the checks. *)
let check_every = 4

let run (ctx : Run.ctx) =
  let tr = ctx.Run.tracer in
  let traced = ctx.Run.traced in
  let name = Tracer.name tr in
  let id_cell = name "client.cell" in
  let id_gen = name "workloads.hotspots.generate" in
  let id_flow = name "multi.fleet_offline.optimum_flow" in
  let id_upper = name "multi.fleet_offline.optimum" in
  let id_wfa = name "multi.fleet_engine.wfa" in
  let id_ftp = name "multi.fleet_engine.ftp" in
  let id_mtc = name "multi.fleet_engine.mtc" in
  let id_combine = name "multi.fleet_engine.combine" in
  let checks = Run.checks () in
  let pool_size = ctx.Run.units in
  let base = Prng.Stream.named ~name:"perfbench-fleet-f1" ~seed:ctx.Run.seed in
  let upper_base = Prng.Stream.replicate base (-1) in
  let alg_base = Prng.Stream.replicate base (-2) in
  let setup () =
    Array.init pool_size (fun i ->
        Tracer.enter tr id_gen ~op:i;
        let inst =
          Workloads.Hotspots.generate ~hotspots:3 ~dim:2 ~t:t_len
            (Prng.Stream.replicate base i)
        in
        Tracer.leave tr;
        inst)
  in
  let setup_s = Array.make ctx.Run.setups 0.0 in
  let pool = ref [||] in
  for r = 0 to ctx.Run.setups - 1 do
    pool := [||];
    Gc.full_major ();
    if traced then Tracer.start tr;
    let t = Run.now () in
    pool := setup ();
    setup_s.(r) <- Run.now () -. t
  done;
  let pool = !pool in
  let ncells = Array.length ks in
  let lat = Pct.create (ncells * pool_size) in
  let opts = Array.make (ncells * pool_size) nan in
  let cells = ref 0 and requests = ref 0 and arcs = ref 0 in
  (* A solver exception fails the cell and keeps the spans balanced. *)
  let timed id ~op what f =
    Tracer.enter tr id ~op;
    let v =
      match f () with
      | v -> v
      | exception e ->
        Run.fail checks "cell %d: %s raised %s" op what (Printexc.to_string e);
        nan
    in
    Tracer.leave tr;
    v
  in
  Offline.Opt_cache.clear ();
  let gc0, t0 = Run.begin_measure ctx in
  let instances = ref 0 in
  while !instances < pool_size && Run.now () -. t0 < ctx.Run.deadline_s do
    let i = !instances in
    let inst = pool.(i) in
    Array.iter
      (fun k ->
        let op = !cells in
        Tracer.enter tr id_cell ~op;
        let c0 = Run.now () in
        let opt =
          timed id_flow ~op "optimum_flow" (fun () ->
              M.Fleet_offline.optimum_flow ~k config inst)
        in
        let cell_rng = (i * 8) + k in
        ignore
          (timed id_upper ~op "optimum" (fun () ->
               M.Fleet_offline.optimum ~k config inst
                 (Prng.Stream.replicate upper_base cell_rng)));
        let alg_rng = Prng.Stream.replicate alg_base cell_rng in
        let cost id what make =
          let c =
            timed id ~op what (fun () ->
                M.Fleet_engine.total_cost ~rng:(Prng.Xoshiro.copy alg_rng) ~k
                  config (make ()) inst)
          in
          if not (Float.is_finite c && c >= 0.0) then
            Run.fail checks "cell %d: %s cost %h" op what c
        in
        let ftp () = M.Fleet_prediction.algorithm ~k ~sigma:0.5 ~seed:11 inst in
        let candidates () =
          [ M.Fleet_wfa.algorithm (); ftp (); M.Fleet_mtc.independent ]
        in
        cost id_wfa "fleet-wfa" (fun () -> M.Fleet_wfa.algorithm ());
        cost id_ftp "fleet-ftp" ftp;
        cost id_mtc "fleet-mtc" (fun () -> M.Fleet_mtc.independent);
        cost id_combine "combine-det" (fun () ->
            M.Fleet_combine.deterministic (candidates ()));
        cost id_combine "combine-rand" (fun () ->
            M.Fleet_combine.randomized (candidates ()));
        opts.(op) <- opt;
        Pct.add lat (Run.now () -. c0);
        Tracer.leave tr;
        if traced then begin
          let n =
            Array.fold_left (fun acc r -> acc + Array.length r) 0
              inst.Instance.steps
          in
          requests := !requests + n;
          arcs := !arcs + (2 * n) + (n * (n - 1) / 2)
        end;
        incr cells)
      ks;
    incr instances
  done;
  let wall_s = Run.now () -. t0 in
  let gc = Run.gc_delta gc0 in
  let rss_mb = Host.peak_rss_mb () in
  Tracer.stop tr;
  let t_verify = Run.now () in
  let checked = ref 0 in
  for i = 0 to !instances - 1 do
    if i mod check_every = 0 then begin
      let inst = pool.(i) in
      let d_factor = config.Config.d_factor in
      let start = inst.Instance.start in
      let requests = Array.concat (Array.to_list inst.Instance.steps) in
      Array.iteri
        (fun j k ->
          incr checked;
          let op = (i * ncells) + j in
          let opt = opts.(op) in
          (* The measured optimum came through Opt_cache: it must be a
             fresh solve's bit for bit, which also prices its chains. *)
          let cost, chains = M.Fleet_flow.solve ~d_factor ~start ~requests ~k in
          let priced = M.Fleet_flow.price_chains ~d_factor ~start ~requests chains in
          if not (Run.same_bits opt cost && Run.same_bits priced cost) then
            Run.fail checks "cell %d: flow optimum %h, re-solved %h, chains priced %h"
              op opt cost priced;
          (* An independent solver: on a prefix small enough to
             enumerate, the flow optimum equals the brute-force one. *)
          let small = prefix inst in
          let flow = M.Fleet_offline.optimum_flow ~k config small in
          let brute = M.Fleet_offline.optimum_brute ~k config small in
          if not (Run.same_bits flow brute) then
            Run.fail checks "cell %d: on a %d-request prefix the flow optimum is \
                             %h, brute force %h" op brute_prefix flow brute;
          let wfa = M.Fleet_wfa.run ~k config inst in
          if not (wfa.M.Fleet_wfa.opt_estimate >= opt *. (1.0 -. rounding)) then
            Run.fail checks "cell %d: WFA opt_estimate %h below the flow optimum %h"
              op wfa.M.Fleet_wfa.opt_estimate opt)
        ks
    end
  done;
  let verify_s = Run.now () -. t_verify in
  {
    Run.ops = !cells;
    units = !instances;
    wall_s;
    lat;
    tail = lat;
    tail_unit = "cell";
    setup_s;
    gc;
    rss_mb;
    attempted = !cells;
    failed = Run.failed checks;
    problems = Run.problems checks;
    layers =
      [ ("multi.fleet_flow.requests", float_of_int !requests);
        ("multi.fleet_flow.arcs", float_of_int !arcs);
        ("multi.verify_s", verify_s) ];
    mirror_s = 0.0;
    notes =
      [ ("instances", string_of_int !instances);
        ("cells checked", string_of_int !checked);
        ("oracle seconds", Printf.sprintf "%.3f" verify_s) ];
  }
