[@@@no_boxed_floats]

module Vec = Geometry.Vec
module Config = Mobile_server.Config
module Cost = Mobile_server.Cost

(* Algorithm combiners (the exemplar's [execute_combine_deterministic]
   / [execute_combine_randomized]): run every candidate in simulation,
   track each one's cumulative cost under the real round pricing, and
   keep the combiner's own fleet walking toward the currently trusted
   candidate's fleet at online speed.  Trust is switched by doubling
   hysteresis (deterministic) or by sampling from exponential weights
   (randomized, on a seeded stream), so both combiners are competitive
   with the best candidate in hindsight up to the classic factors. *)

type sim = {
  stepper : Fleet_algorithm.stepper;
  mutable fleet : Vec.t array;
  mutable cost : float;
}

let make_sims (candidates : Fleet_algorithm.t list) ?rng config ~start =
  List.map
    (fun (alg : Fleet_algorithm.t) ->
      {
        stepper = alg.Fleet_algorithm.make ?rng config ~start;
        fleet = Array.map Vec.copy start;
        cost = 0.0;
      })
    candidates

(* Advance every candidate one round; their steppers clamp internally,
   so [next] is each candidate's real (budget-feasible) fleet. *)
let step_sims config sims requests =
  List.iter
    (fun sim ->
      let next = sim.stepper requests in
      let cost = Fleet.step config ~from:sim.fleet ~to_:next requests in
      sim.fleet <- next;
      sim.cost <- sim.cost +. Cost.total cost)
    sims

let min_cost sims =
  List.fold_left (fun acc sim -> Float.min acc sim.cost) infinity sims

let check_candidates name = function
  | [] -> invalid_arg (name ^ ": no candidates")
  | _ :: _ -> ()

let deterministic ?(factor = 2.0) candidates =
  check_candidates "fleet-combine-det" candidates;
  if factor < 1.0 then invalid_arg "fleet-combine-det: factor < 1";
  {
    Fleet_algorithm.name = "fleet-combine-det";
    make =
      (fun ?rng (config : Config.t) ~start ->
        let sims = make_sims candidates ?rng config ~start in
        let limit = Config.online_limit config in
        let fleet = ref (Array.map Vec.copy start) in
        let active = ref 0 in
        fun requests ->
          step_sims config sims requests;
          let best = min_cost sims in
          let cur = (List.nth sims !active).cost in
          if cur > factor *. best then begin
            (* Switch to the cheapest candidate, lowest index on
               ties. *)
            let i = ref 0 and found = ref (-1) in
            List.iter
              (fun sim ->
                if !found < 0 && sim.cost <= best then found := !i;
                incr i)
              sims;
            active := !found
          end;
          let next =
            Fleet.clamp ~limit ~from:!fleet (List.nth sims !active).fleet
          in
          fleet := next;
          next);
  }

let randomized ?(eps = 1.0) candidates =
  check_candidates "fleet-combine-rand" candidates;
  if eps <= 0.0 then invalid_arg "fleet-combine-rand: eps <= 0";
  {
    Fleet_algorithm.name = "fleet-combine-rand";
    make =
      (fun ?rng (config : Config.t) ~start ->
        let rng =
          match rng with
          | Some g -> g
          | None -> Prng.Stream.named ~name:"fleet-combine" ~seed:0
        in
        let sims = make_sims candidates ?rng:(Some rng) config ~start in
        let limit = Config.online_limit config in
        let fleet = ref (Array.map Vec.copy start) in
        fun requests ->
          step_sims config sims requests;
          (* Exponential weights on cumulative cost, re-sampled every
             round from the combiner's stream. *)
          let best = min_cost sims in
          let weights =
            Array.of_list
              (List.map (fun sim -> exp (-.eps *. (sim.cost -. best))) sims)
          in
          let n = Array.length weights in
          let total = Array.fold_left ( +. ) 0.0 weights in
          let u = Prng.Dist.uniform rng ~lo:0.0 ~hi:total in
          let active = ref 0 and acc = ref 0.0 in
          for i = 0 to n - 1 do
            acc := !acc +. weights.(i);
            if !acc < u then active := Stdlib.min (i + 1) (n - 1)
          done;
          let next =
            Fleet.clamp ~limit ~from:!fleet (List.nth sims !active).fleet
          in
          fleet := next;
          next);
  }
