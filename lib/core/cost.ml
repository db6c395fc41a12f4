[@@@no_boxed_floats]

module Vec = Geometry.Vec

type breakdown = { move : float; service : float }

let total b = b.move +. b.service

let zero = { move = 0.0; service = 0.0 }

let add a b = { move = a.move +. b.move; service = a.service +. b.service }

(* [Vec.sum_dist] is this fold — [0.] plus each distance, left to
   right — run inside [Vec], where the distance inlines unboxed. *)
let service_cost p vs = Vec.sum_dist p vs

let step (config : Config.t) ~from ~to_ vs =
  let move = config.d_factor *. Vec.dist from to_ in
  let service =
    match config.variant with
    | Variant.Move_first -> service_cost to_ vs
    | Variant.Serve_first -> service_cost from vs
  in
  { move; service }

(* Each round's [step]-shaped move and service, added in round order to
   two float accumulators starting at 0 — the additions of folding
   [add] over the rounds from [zero], without a record per round — with
   the service sums taken over the flat request buffer
   ([Points.sum_dist] is bit-identical to [service_cost] on the boxed
   round, so this prices exactly as the engine's per-round [step]). *)
let trajectory config ~start positions (p : Instance.Packed.t) =
  let t_len = Instance.Packed.length p in
  if Array.length positions <> t_len then
    invalid_arg
      (Printf.sprintf "Cost.trajectory: %d positions for %d rounds"
         (Array.length positions) t_len);
  let points = Instance.Packed.points p in
  let move = ref 0.0 and service = ref 0.0 in
  let prev = ref start in
  for t = 0 to t_len - 1 do
    let lo = Instance.Packed.round_start p t in
    let hi = Instance.Packed.round_start p (t + 1) in
    move :=
      !move +. (config.Config.d_factor *. Vec.dist !prev positions.(t));
    (service :=
       !service
       +.
       match config.Config.variant with
       | Variant.Move_first ->
         Geometry.Points.sum_dist points ~lo ~hi positions.(t)
       | Variant.Serve_first -> Geometry.Points.sum_dist points ~lo ~hi !prev);
    prev := positions.(t)
  done;
  { move = !move; service = !service }

let feasible ~limit ~start positions =
  let slack = limit +. (Config.budget_slack *. Float.max 1.0 limit) in
  let n = Array.length positions in
  let ok = ref true in
  let prev = ref start in
  let i = ref 0 in
  (* Stop at the first violation: long infeasible trajectories used to
     be scanned to the end for a verdict already decided. *)
  while !ok && !i < n do
    let p = positions.(!i) in
    (* A NaN distance compares false against any slack, so an explicit
       finiteness test is required to reject garbage trajectories. *)
    let d = Vec.dist !prev p in
    if (not (Float.is_finite d)) || d > slack then ok := false;
    prev := p;
    incr i
  done;
  !ok
