type instance = { start : int; rounds : int array array }

let make_instance g ~start rounds =
  let n = Graph.nodes g in
  if start < 0 || start >= n then
    invalid_arg "Pm_model.make_instance: start out of range";
  Array.iteri
    (fun t round ->
      Array.iter
        (fun v ->
          if v < 0 || v >= n then
            invalid_arg
              (Printf.sprintf
                 "Pm_model.make_instance: request in round %d out of range" t))
        round)
    rounds;
  { start; rounds = Array.map Array.copy rounds }

type algorithm = {
  name : string;
  make :
    ?rng:Prng.Xoshiro.t -> Dijkstra.metric -> d_factor:float -> start:int ->
    (int array -> int);
}

type run = {
  algorithm : string;
  positions : int array;
  move_cost : float;
  service_cost : float;
}

let total r = r.move_cost +. r.service_cost

let check_d d_factor =
  if d_factor < 1.0 then invalid_arg "Pm_model: D must be >= 1"

(* Move and service cost of the page trajectory [positions] from
   [start], round by round. *)
let price metric ~d_factor ~start positions inst =
  let move = ref 0.0 and service = ref 0.0 in
  let page = ref start in
  Array.iteri
    (fun t target ->
      let from_row, from_base = Dijkstra.row metric !page in
      move :=
        !move
        +. (d_factor *. Geometry.Fbuf.get from_row (from_base + target));
      page := target;
      let row, base = Dijkstra.row metric target in
      Array.iter
        (fun v -> service := !service +. Geometry.Fbuf.get row (base + v))
        inst.rounds.(t))
    positions;
  (!move, !service)

let run ?rng metric ~d_factor (alg : algorithm) inst =
  check_d d_factor;
  let stepper = alg.make ?rng metric ~d_factor ~start:inst.start in
  let n = Dijkstra.size metric in
  let positions =
    Array.map
      (fun requests ->
        let target = stepper requests in
        if target < 0 || target >= n then
          invalid_arg (alg.name ^ ": migrated out of the graph");
        target)
      inst.rounds
  in
  let move_cost, service_cost =
    price metric ~d_factor ~start:inst.start positions inst
  in
  { algorithm = alg.name; positions; move_cost; service_cost }

let replay metric ~d_factor ~start positions inst =
  check_d d_factor;
  if Array.length positions <> Array.length inst.rounds then
    invalid_arg "Pm_model.replay: trajectory length mismatch";
  let move, service = price metric ~d_factor ~start positions inst in
  move +. service

let uniform_requests g ~t rng =
  let n = Graph.nodes g in
  make_instance g ~start:0
    (Array.init t (fun _ -> [| Prng.Xoshiro.next_below rng n |]))

let localized_requests g ~t ?(locality = 0.8) ?(switch_prob = 0.05) rng =
  if locality < 0.0 || locality > 1.0 then
    invalid_arg "Pm_model.localized_requests: locality outside [0, 1]";
  if switch_prob < 0.0 || switch_prob > 1.0 then
    invalid_arg "Pm_model.localized_requests: switch_prob outside [0, 1]";
  let n = Graph.nodes g in
  let hot = ref 0 in
  make_instance g ~start:0
    (Array.init t (fun _ ->
         if Prng.Dist.bernoulli rng ~p:switch_prob then
           hot := Prng.Xoshiro.next_below rng n;
         let request =
           if Prng.Dist.bernoulli rng ~p:locality then !hot
           else
             (* O(1) CSR row indexing; the sampled slot [k] addresses
                the same neighbour the historical [List.nth] over the
                adjacency list returned, so trajectories are
                bit-identical. *)
             match Graph.degree g !hot with
             | 0 -> !hot
             | deg ->
               let k = Prng.Xoshiro.next_below rng deg in
               fst (Graph.neighbor g !hot k)
         in
         [| request |]))
