[@@@no_boxed_floats]

module Vec = Geometry.Vec

type step_record = {
  round : int;
  position : Vec.t;
  proposed : Vec.t;
  clamped : bool;
  cost : Cost.breakdown;
}

type run = {
  algorithm : string;
  config : Config.t;
  positions : Vec.t array;
  cost : Cost.breakdown;
  clamped : int;
}

(* A loop, not [Array.for_all Float.is_finite]: that boxes every
   coordinate it passes to the predicate. *)
let is_finite_vec v =
  let ok = ref true in
  for i = 0 to Array.length v - 1 do
    if not (Float.is_finite v.(i)) then ok := false
  done;
  !ok

module Session = struct
  type t = {
    stepper : Algorithm.stepper;
    limit : float;
    config : Config.t;
    dim : int;
    mutable position : Vec.t;
    mutable rounds : int;
    mutable clamped : int;
    mutable cost : Cost.breakdown;
  }

  (* The one place a session record is built.  An [of_policy] stepper's
     whole state is its own position, which is its last answer — the
     round's [proposed], not the clamped [position]: the engine measures
     that answer again and may interpolate it once more, so the two can
     differ in the last bits. *)
  let restore ?rng config (alg : Algorithm.t) ~position ~proposed ~rounds
      ~clamped ~cost =
    {
      stepper = alg.Algorithm.make ?rng config ~start:proposed;
      limit = Config.online_limit config;
      config;
      dim = Vec.dim position;
      position = Vec.copy position;
      rounds;
      clamped;
      cost;
    }

  let create ?rng config alg ~start =
    restore ?rng config alg ~position:start ~proposed:start ~rounds:0
      ~clamped:0 ~cost:Cost.zero

  (* The round — the only place it is spelled out: the stepper
     proposes, the proposal is tested against and clamped to the online
     budget, the move is priced, and the session's position, running
     cost (a [Cost.add] fold from [Cost.zero] in round order), clamp
     count and round index advance.  Every entry point of this module
     feeds its rounds through here, so their records and totals agree
     bit for bit by construction. *)
  let advance session requests =
    let from = session.position and limit = session.limit in
    let proposed = session.stepper requests in
    (* A finite proposal from a finite position goes through the
       ordinary clamp, [Vec.clamp_step]'s move with the gap measured
       here; one distance decides both whether the round counts as
       clamped and where the clamp puts it.  The test allows
       [Config.budget_slack], as [Cost.feasible] does: algorithms that
       clamp themselves (e.g. via [Algorithm.of_policy]) land within a
       few ulps of the budget and must not be counted.
       [Vec.move_towards] rejects a non-finite gap, so anything else
       poisons the position with NaNs and counts as no clamp: the
       {!Analysis} auditor reports Non_finite_proposal /
       Non_finite_position instead of the run dying mid-trajectory. *)
    let gap = Vec.dist from proposed in
    let finite = is_finite_vec proposed && is_finite_vec from in
    let clamped =
      finite && gap > limit +. (Config.budget_slack *. Float.max 1.0 limit)
    in
    let next =
      if finite then Vec.move_towards_gap from proposed ~gap limit
      else Array.make session.dim Float.nan
    in
    let cost = Cost.step session.config ~from ~to_:next requests in
    session.position <- next;
    session.cost <- Cost.add session.cost cost;
    if clamped then session.clamped <- session.clamped + 1;
    let record = { round = session.rounds; position = next; proposed; clamped; cost } in
    session.rounds <- session.rounds + 1;
    record

  (* All request validation happens before the stepper is invoked: the
     stepper is a stateful closure, so calling it and then raising
     would leave a half-applied step (advanced algorithm state, stale
     session counters).  After an [Invalid_argument] from here the
     session is exactly as it was — the caller may drop the bad round
     and keep stepping, which the simtest harness's Reset-after-failure
     op relies on. *)
  let step session requests =
    for j = 0 to Array.length requests - 1 do
      let v = requests.(j) in
      if Vec.dim v <> session.dim then
        invalid_arg "Engine.Session.step: request dimension mismatch";
      if not (is_finite_vec v) then
        invalid_arg "Engine.Session.step: non-finite request coordinate"
    done;
    advance session requests

  let position session = Vec.copy session.position

  let rounds session = session.rounds

  let clamped_count session = session.clamped

  let cost session = session.cost
end

type stream_summary = {
  s_algorithm : string;
  s_rounds : int;
  s_clamped : int;
  s_cost : Cost.breakdown;
  s_final : Vec.t;
}

(* Every batch entry point below is this loop over some round source:
   one session, fed [next round] for each round in order, its totals
   read back at the end.  Instance rounds are trusted, so they go
   straight to [Session.advance]; only [Session.step] validates.  Live
   state is the session alone, independent of [rounds]. *)
let run_stream ?rng ?trace config (alg : Algorithm.t) ~start ~rounds next =
  if rounds < 0 then invalid_arg "Engine.run_stream: rounds < 0";
  let session = Session.create ?rng config alg ~start in
  for round = 0 to rounds - 1 do
    let record = Session.advance session (next round) in
    match trace with None -> () | Some f -> f record
  done;
  {
    s_algorithm = alg.name;
    s_rounds = rounds;
    s_clamped = Session.clamped_count session;
    s_cost = Session.cost session;
    s_final = Session.position session;
  }

let iter ?rng config alg (inst : Instance.t) f =
  ignore
    (run_stream ?rng ~trace:f config alg ~start:inst.start
       ~rounds:(Instance.length inst)
       (fun round -> inst.steps.(round)))

(* A run with its trajectory: the positions are collected off the
   records, the totals come from the session. *)
let play ?rng config alg ~start ~rounds next =
  let positions = Array.make rounds start in
  let summary =
    run_stream ?rng
      ~trace:(fun r -> positions.(r.round) <- r.position)
      config alg ~start ~rounds next
  in
  {
    algorithm = summary.s_algorithm;
    config;
    positions;
    cost = summary.s_cost;
    clamped = summary.s_clamped;
  }

let run ?rng config alg (inst : Instance.t) =
  play ?rng config alg ~start:inst.start ~rounds:(Instance.length inst)
    (fun round -> inst.steps.(round))

let total_cost ?rng config alg (inst : Instance.t) =
  Cost.total
    (run_stream ?rng config alg ~start:inst.start
       ~rounds:(Instance.length inst)
       (fun round -> inst.steps.(round)))
      .s_cost

(* Packed round source: per-round request views are materialized into a
   fixed set of scratch vectors, so no request is boxed per round and
   no per-round array is allocated.  [views.(r)] shares the first [r]
   scratch vectors; the session sees ordinary [Vec.t array] values with
   exactly the boxed coordinates, so the run is bit-identical to one on
   the boxed instance.  Contract: the algorithm must not retain the
   request array or its vectors across rounds — they are overwritten by
   the next round (every in-tree algorithm copies what it keeps). *)
let packed_rounds (p : Instance.Packed.t) =
  let max_r = ref 0 in
  for t = 0 to Instance.Packed.length p - 1 do
    max_r := Stdlib.max !max_r (Instance.Packed.round_length p t)
  done;
  let d = Instance.Packed.dim p in
  let points = Instance.Packed.points p in
  let scratch = Array.init !max_r (fun _ -> Array.make d 0.0) in
  let views = Array.init (!max_r + 1) (fun r -> Array.sub scratch 0 r) in
  fun round ->
    let lo = Instance.Packed.round_start p round in
    let r = Instance.Packed.round_length p round in
    for i = 0 to r - 1 do
      Geometry.Points.get_into points (lo + i) scratch.(i)
    done;
    views.(r)

let total_cost_packed ?rng config alg p =
  Cost.total
    (run_stream ?rng config alg ~start:(Instance.Packed.start p)
       ~rounds:(Instance.Packed.length p) (packed_rounds p))
      .s_cost

let replay config ~start positions inst =
  if not (Cost.feasible ~limit:(Config.offline_limit config) ~start positions)
  then invalid_arg "Engine.replay: trajectory exceeds the offline budget m";
  Cost.trajectory config ~start positions (Instance.pack inst)
