(* ratio-line: e4's stochastic sweep.  Each cell prices MtC on a 1-D
   drifting-cluster instance against the cached exact line optimum,
   for delta in {1, 1/2, 1/4, 1/8}.  The optimum cannot observe delta,
   so the first cell of each seed misses the cache and runs the DP and
   the other three hit: changes to the Line_dp kernel or to Opt_cache
   show here and on no other workload. *)

open Perfbench
module Instance = Mobile_server.Instance
module Engine = Mobile_server.Engine
module Config = Mobile_server.Config
module Opt_cache = Offline.Opt_cache

let configs =
  Array.map
    (fun delta -> Config.make ~d_factor:4.0 ~move_limit:1.0 ~delta ())
    [| 1.0; 0.5; 0.25; 0.125 |]

let t_len = 400

(* Seeds whose cached optimum is checked against a cold solve. *)
let check_every = 16

(* Line_dp's grid, sized by the rule Line_dp.solve_packed applies at
   its default 64 points per move budget: the pitch, and the grid
   points below and above the start.  The oracle compares it with the
   solver's own grid on every checked seed, so the state counts below
   cannot silently go stale when the solver's sizing rule changes. *)
type grid = { pitch : float; below : int; above : int }

let dp_grid config p =
  let t = Instance.Packed.length p in
  let start = (Instance.Packed.start p).(0) in
  let data = Geometry.Points.raw (Instance.Packed.points p) in
  let lo = ref start and hi = ref start in
  for i = 0 to Instance.Packed.total_requests p - 1 do
    let x = Geometry.Fbuf.get data i in
    if x < !lo then lo := x;
    if x > !hi then hi := x
  done;
  let m = Config.offline_limit config in
  let max_grid = Stdlib.max 64 (Stdlib.min 60_000 (40_000_000 / t)) in
  let by_m = m /. 64.0 in
  let width = !hi -. !lo in
  let pitch =
    Float.max by_m (if width > 0.0 then width /. float_of_int max_grid else by_m)
  in
  { pitch;
    below = int_of_float (Float.ceil ((start -. !lo) /. pitch));
    above = int_of_float (Float.ceil ((!hi -. start) /. pitch)) }

(* The DP's state count T * G; the parent table holds one byte per
   state. *)
let dp_cells config p =
  let g = dp_grid config p in
  Instance.Packed.length p * (g.below + g.above + 1)

(* The solver's pitch must be [dp_grid]'s bit for bit, and every point
   of its optimal trajectory must sit on that grid. *)
let grid_mismatch config p (sol : Offline.Line_dp.solution) =
  let g = dp_grid config p in
  let start = (Instance.Packed.start p).(0) in
  let off_grid (x : Geometry.Vec.t) =
    let k = Float.round ((x.(0) -. start) /. g.pitch) in
    k < float_of_int (-g.below)
    || k > float_of_int g.above
    || not (Run.same_bits x.(0) (start +. (k *. g.pitch)))
  in
  (not (Run.same_bits g.pitch sol.Offline.Line_dp.grid_pitch))
  || Array.exists off_grid sol.Offline.Line_dp.positions

let run (ctx : Run.ctx) =
  let tr = ctx.Run.tracer in
  let traced = ctx.Run.traced in
  let name = Tracer.name tr in
  let id_cell = name "client.cell" in
  let id_gen = name "workloads.clusters.generate" in
  let id_pack = name "core.instance.pack" in
  let id_digest = name "core.instance.content_digest" in
  let id_solve = name "offline.line_dp.solve" in
  let id_hit = name "offline.opt_cache.hit" in
  let id_cost = name "core.engine.total_cost_packed" in
  let checks = Run.checks () in
  let pool_size = ctx.Run.units in
  let base = Prng.Stream.named ~name:"perfbench-ratio-line" ~seed:ctx.Run.seed in
  let setup () =
    Array.init pool_size (fun i ->
        Tracer.enter tr id_gen ~op:i;
        let inst =
          Workloads.Clusters.generate ~r_min:2 ~r_max:2 ~sigma:1.0 ~drift:0.3
            ~arena:20.0 ~dim:1 ~t:t_len (Prng.Stream.replicate base i)
        in
        Tracer.leave tr;
        Tracer.enter tr id_pack ~op:i;
        let p = Instance.pack inst in
        Tracer.leave tr;
        Tracer.enter tr id_digest ~op:i;
        ignore (Instance.Packed.content_digest p);
        Tracer.leave tr;
        p)
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
  let ncells = Array.length configs in
  let lat = Pct.create (ncells * pool_size) in
  let opts = Array.make (ncells * pool_size) nan in
  let ratios = Array.make (ncells * pool_size) nan in
  let cells = ref 0 and dp_states = ref 0 in
  (* Every seed starts cold, also when a traced pass repeats the seeds
     an untraced pass already solved. *)
  Opt_cache.clear ();
  let stats0 = Opt_cache.stats () in
  let gc0, t0 = Run.begin_measure ctx in
  let seeds = ref 0 in
  while !seeds < pool_size && Run.now () -. t0 < ctx.Run.deadline_s do
    let p = pool.(!seeds) in
    for j = 0 to ncells - 1 do
      let op = !cells in
      Tracer.enter tr id_cell ~op;
      let c0 = Run.now () in
      (* The lookup is booked as a hit unless the cache's miss counter
         moved, in which case it ran the DP. *)
      Tracer.enter tr id_hit ~op;
      let misses0 = if traced then (Opt_cache.stats ()).Opt_cache.misses else 0 in
      (match Opt_cache.line_dp configs.(j) p with
       | opt -> opts.(op) <- opt
       | exception e ->
         Run.fail checks "seed %d: Opt_cache.line_dp raised %s" !seeds
           (Printexc.to_string e));
      if traced && (Opt_cache.stats ()).Opt_cache.misses > misses0 then begin
        dp_states := !dp_states + dp_cells configs.(j) p;
        Tracer.leave_as tr id_solve
      end
      else Tracer.leave tr;
      Tracer.enter tr id_cost ~op;
      (match Engine.total_cost_packed configs.(j) Mobile_server.Mtc.algorithm p with
       | cost -> ratios.(op) <- cost /. opts.(op)
       | exception e ->
         Run.fail checks "seed %d: total_cost_packed raised %s" !seeds
           (Printexc.to_string e));
      Tracer.leave tr;
      Pct.add lat (Run.now () -. c0);
      Tracer.leave tr;
      incr cells
    done;
    incr seeds
  done;
  let wall_s = Run.now () -. t0 in
  let gc = Run.gc_delta gc0 in
  let rss_mb = Host.peak_rss_mb () in
  Tracer.stop tr;
  let stats1 = Opt_cache.stats () in
  let t_verify = Run.now () in
  for op = 0 to !cells - 1 do
    let r = ratios.(op) in
    if not (Float.is_finite r && r > 0.0) then
      Run.fail checks "cell %d: ratio %h is not a positive number" op r
  done;
  let checked = ref 0 in
  for i = 0 to !seeds - 1 do
    if i mod check_every = 0 then begin
      incr checked;
      let sol = Offline.Line_dp.solve_packed configs.(0) pool.(i) in
      let cold = sol.Offline.Line_dp.cost in
      if grid_mismatch configs.(0) pool.(i) sol then
        Run.fail checks "seed %d: Line_dp's grid (pitch %h) is not the one \
                         the state counts assume (pitch %h)" i
          sol.Offline.Line_dp.grid_pitch (dp_grid configs.(0) pool.(i)).pitch;
      for j = 0 to ncells - 1 do
        let cached = opts.((i * ncells) + j) in
        if not (Run.same_bits cached cold) then
          Run.fail checks "seed %d delta %g: cached optimum %h, cold solve %h" i
            configs.(j).Config.delta cached cold
      done
    end
  done;
  let verify_s = Run.now () -. t_verify in
  let hits = stats1.Opt_cache.hits - stats0.Opt_cache.hits in
  let misses = stats1.Opt_cache.misses - stats0.Opt_cache.misses in
  {
    Run.ops = !cells;
    units = !seeds;
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
      [ ("offline.line_dp.cells", float_of_int !dp_states);
        ("offline.line_dp.parent_bytes", float_of_int !dp_states);
        ("offline.opt_cache.hits", float_of_int hits);
        ("offline.opt_cache.misses", float_of_int misses);
        ("offline.verify_s", verify_s) ];
    mirror_s = 0.0;
    notes =
      [ ("seeds", string_of_int !seeds);
        ("opt_cache hits/misses", Printf.sprintf "%d/%d" hits misses);
        ("seeds checked against a cold solve", string_of_int !checked);
        ("oracle seconds", Printf.sprintf "%.3f" verify_s) ];
  }
