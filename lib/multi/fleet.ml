module Vec = Geometry.Vec
module Config = Mobile_server.Config
module Cost = Mobile_server.Cost
module Variant = Mobile_server.Variant

(* Requests outer, servers inner, nearest by strict [<] (lowest index
   on ties — the rule of [Fleet_algorithm.partition_requests]), summed
   in request order: test/golden/fleet_v1.txt pins this order. *)
let service_cost fleet requests =
  let k = Array.length fleet in
  if k = 0 then invalid_arg "Fleet.service_cost: empty fleet";
  let acc = ref 0.0 in
  for r = 0 to Array.length requests - 1 do
    let req = requests.(r) in
    let best = ref (Vec.dist fleet.(0) req) in
    for i = 1 to k - 1 do
      let d = Vec.dist fleet.(i) req in
      if d < !best then best := d
    done;
    acc := !acc +. !best
  done;
  !acc

let check_fleets from to_ =
  let k = Array.length from in
  if k = 0 then invalid_arg "Fleet.step: empty fleet";
  if Array.length to_ <> k then invalid_arg "Fleet.step: fleet size mismatch";
  Array.iteri
    (fun i p ->
      if Vec.dim p <> Vec.dim from.(0) || Vec.dim to_.(i) <> Vec.dim from.(0)
      then invalid_arg "Fleet.step: dimension mismatch")
    from

let step (config : Config.t) ~from ~to_ requests =
  check_fleets from to_;
  (* Movement is summed in server order. *)
  let moved = ref 0.0 in
  for i = 0 to Array.length from - 1 do
    moved := !moved +. Vec.dist from.(i) to_.(i)
  done;
  let move = config.Config.d_factor *. !moved in
  let service =
    match config.Config.variant with
    | Variant.Move_first -> service_cost to_ requests
    | Variant.Serve_first -> service_cost from requests
  in
  { Cost.move; service }

let clamp ~limit ~from target =
  Array.mapi (fun i p -> Vec.clamp_step ~from:from.(i) limit p) target

let feasible ~limit ~start fleets =
  let k = Array.length start in
  Array.iter
    (fun fleet ->
      if Array.length fleet <> k then
        invalid_arg "Fleet.feasible: fleet size mismatch")
    fleets;
  let slack = limit +. (Config.budget_slack *. Float.max 1.0 limit) in
  (* A NaN distance compares false against any slack, so an explicit
     finiteness test is required to reject garbage trajectories, as in
     [Cost.feasible]. *)
  let within prev p =
    let d = Vec.dist prev p in
    Float.is_finite d && d <= slack
  in
  let prev = ref start in
  Array.for_all
    (fun fleet ->
      let ok = Array.for_all2 within !prev fleet in
      prev := fleet;
      ok)
    fleets

let spread_start ~k p =
  if k < 1 then invalid_arg "Fleet.spread_start: k < 1";
  Array.init k (fun _ -> Vec.copy p)
