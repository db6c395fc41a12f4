module Vec = Geometry.Vec
module Config = Mobile_server.Config
module Cost = Mobile_server.Cost
module Instance = Mobile_server.Instance

type run = {
  algorithm : string;
  config : Config.t;
  fleets : Vec.t array array;
  cost : Cost.breakdown;
}

let iter ?rng ~k config (alg : Fleet_algorithm.t) (inst : Instance.t) f =
  if k < 1 then invalid_arg "Fleet_engine: k < 1";
  let start = Fleet.spread_start ~k inst.Instance.start in
  let stepper = alg.Fleet_algorithm.make ?rng config ~start in
  let limit = Config.online_limit config in
  let fleet = ref start in
  Array.iteri
    (fun t requests ->
      let proposed = stepper requests in
      let next = Fleet.clamp ~limit ~from:!fleet proposed in
      let cost = Fleet.step config ~from:!fleet ~to_:next requests in
      fleet := next;
      f t next cost)
    inst.Instance.steps

let run ?rng ~k config alg inst =
  let t_len = Instance.length inst in
  let fleets = Array.make t_len [||] in
  let total = ref Cost.zero in
  iter ?rng ~k config alg inst (fun t fleet cost ->
      fleets.(t) <- fleet;
      total := Cost.add !total cost);
  { algorithm = alg.Fleet_algorithm.name; config; fleets; cost = !total }

let total_cost ?rng ~k config alg inst =
  let total = ref Cost.zero in
  iter ?rng ~k config alg inst (fun _ _ cost -> total := Cost.add !total cost);
  Cost.total !total

let replay config ~start fleets (inst : Instance.t) =
  if Array.length fleets <> Instance.length inst then
    invalid_arg "Fleet_engine.replay: trajectory length mismatch";
  if not (Fleet.feasible ~limit:(Config.offline_limit config) ~start fleets)
  then invalid_arg "Fleet_engine.replay: trajectory exceeds the offline budget";
  let total = ref Cost.zero in
  let prev = ref start in
  Array.iteri
    (fun t fleet ->
      total :=
        Cost.add !total
          (Fleet.step config ~from:!prev ~to_:fleet inst.Instance.steps.(t));
      prev := fleet)
    fleets;
  !total
