(** Simulation engine: replay an instance through an online algorithm.

    The engine owns feasibility: whatever position the algorithm
    answers is clamped to the online budget [(1+δ)·m] before costs are
    charged, so every reported run is a legal trajectory.  (Well-behaved
    algorithms such as {!Mtc} are never actually clamped; the clamp is a
    safety net for experimental strategies.) *)

type step_record = {
  round : int;  (** 0-based round index. *)
  position : Geometry.Vec.t;  (** Server position after the round. *)
  proposed : Geometry.Vec.t;
      (** The algorithm's raw answer for the round, {e before} the clamp
          to the online budget.  Equal to [position] unless [clamped].
          The {!Analysis} auditor reads it, with [clamped], instead of
          watching the algorithm itself. *)
  clamped : bool;
      (** Whether the proposal exceeded the online budget by more than
          {!Config.budget_slack} and was cut back.  Only a finite
          proposal from a finite position is clamped; any other one
          leaves a NaN position and counts as no clamp.  A
          well-behaved algorithm is never clamped. *)
  cost : Cost.breakdown;  (** This round's cost. *)
}

type run = {
  algorithm : string;
  config : Config.t;
  positions : Geometry.Vec.t array;
      (** Position after each round; length [T]. *)
  cost : Cost.breakdown;  (** Total cost over the run. *)
  clamped : int;
      (** Number of rounds whose proposal had to be clamped to the
          online budget.  Zero for every algorithm that respects the
          model; tests assert on this. *)
}

val run :
  ?rng:Prng.Xoshiro.t -> Config.t -> Algorithm.t -> Instance.t -> run
(** [run config alg inst] plays [alg] over [inst] and returns the full
    trajectory and total cost. *)

val total_cost :
  ?rng:Prng.Xoshiro.t -> Config.t -> Algorithm.t -> Instance.t -> float
(** [total_cost config alg inst] is [Cost.total (run ...).cost] without
    retaining the trajectory. *)

type stream_summary = {
  s_algorithm : string;
  s_rounds : int;  (** Rounds played. *)
  s_clamped : int;  (** Rounds whose proposal was clamped. *)
  s_cost : Cost.breakdown;  (** Total cost over the run. *)
  s_final : Geometry.Vec.t;  (** Server position after the last round. *)
}

val run_stream :
  ?rng:Prng.Xoshiro.t -> ?trace:(step_record -> unit) -> Config.t ->
  Algorithm.t -> start:Geometry.Vec.t -> rounds:int ->
  (int -> Geometry.Vec.t array) -> stream_summary
(** [run_stream config alg ~start ~rounds next] plays [rounds] rounds
    whose requests come from [next] (called once per round, in round
    order) without materializing an instance or a trajectory: live
    state is one {!Session} — the algorithm's stepper, the current
    position and the running totals — so a single session can stream
    [T = 10^7] rounds in constant memory.  [next round] is consumed
    within the round; the engine does not retain it.  Every entry point
    in this module plays its rounds through the same session round, so
    on [fun r -> inst.steps.(r)] the summary fields are bit-identical
    to {!run}'s totals on [inst] by construction (and still tested).
    [trace], when given, receives each round's {!step_record} —
    sampling hooks for long horizons; the record's vectors are fresh
    per round.  Rounds from [next] are not validated (see
    {!Session.step} for the validating entry).  Raises
    [Invalid_argument] if [rounds < 0]. *)

val total_cost_packed :
  ?rng:Prng.Xoshiro.t -> Config.t -> Algorithm.t -> Instance.Packed.t ->
  float
(** {!total_cost} on the packed view; bit-identical to pricing the
    boxed instance.  Per-round requests reach the algorithm through a
    fixed set of reused scratch vectors (no per-round boxing).
    Contract: the algorithm must not retain the request array or its
    vectors past the round. *)

val replay :
  Config.t -> start:Geometry.Vec.t -> Geometry.Vec.t array -> Instance.t ->
  Cost.breakdown
(** [replay config ~start positions inst] prices a precomputed
    trajectory (for example an offline optimum); checks it against the
    {e offline} budget [m] and raises [Invalid_argument] if it moves too
    far in some round.  The pricing is {!Cost.trajectory} on
    [Instance.pack inst]. *)

val iter :
  ?rng:Prng.Xoshiro.t -> Config.t -> Algorithm.t -> Instance.t ->
  (step_record -> unit) -> unit
(** [iter config alg inst f] streams per-round records to [f] without
    building the trajectory array; the {!Analysis} auditor makes its
    one pass over a run with it.  The records are the ones
    {!Session.step} returns on the same rounds, bit for bit: both come
    from the one session round, so this holds by construction, and
    test_core's entry-point property still checks it. *)

(** Incremental sessions — for embedding the library in a live system
    where rounds arrive one at a time and no {!Instance} exists up
    front.  A session owns the server position and the running cost;
    each {!Session.step} consumes one round of requests, moves the
    server (clamped to the online budget) and returns the round's
    record.  The session round is the engine's only round: {!run},
    {!iter}, {!run_stream} and the [total_cost]s feed
    their rounds through it and read their totals off it, so
    [Engine.run] equals replaying the instance through a session by
    construction — and test_core's entry-point property still checks
    it, record for record and bit for bit. *)
module Session : sig
  type t

  val create :
    ?rng:Prng.Xoshiro.t -> Config.t -> Algorithm.t ->
    start:Geometry.Vec.t -> t
  (** Open a session with the server at [start]: {!restore} of the
      opening state, [~position:start ~proposed:start] with no rounds,
      no clamps and {!Cost.zero}. *)

  val restore :
    ?rng:Prng.Xoshiro.t -> Config.t -> Algorithm.t ->
    position:Geometry.Vec.t -> proposed:Geometry.Vec.t -> rounds:int ->
    clamped:int -> cost:Cost.breakdown -> t
  (** Rebuild a session from the state after its last round, in O(1):
      [position], [rounds], [clamped] and [cost] are that session's
      {!position}, {!rounds}, {!clamped_count} and {!cost}, and
      [proposed] is the last round's {!step_record.proposed}.  The
      stepper restarts from [proposed], not from [position]: the
      engine clamps the answer again and may move it by an ulp.

      Precondition, for [rounds > 0]: [alg] is built by
      {!Algorithm.of_policy} (its whole state is its last answer) and
      draws nothing from [rng].  Then the restored session steps on bit
      for bit as the original would; {!Mtc.algorithm} is such a
      stepper.  Any other stepper, a randomized one say, can only be
      restored at its opening state and must replay its rounds from
      there.  The vectors are copied. *)

  val step : t -> Geometry.Vec.t array -> step_record
  (** Feed one round of requests; returns the post-round record.
      Raises [Invalid_argument] if any request's dimension differs
      from the session's or any coordinate is non-finite — and does so
      {e before} touching any session state (position, cost, counters,
      the algorithm's internal state), so a failed step is not half
      applied: the caller can drop the bad round and keep stepping the
      same session. *)

  val position : t -> Geometry.Vec.t
  (** Current server position. *)

  val rounds : t -> int
  (** Rounds played so far. *)

  val clamped_count : t -> int
  (** Rounds so far whose proposal was clamped to the online budget. *)

  val cost : t -> Cost.breakdown
  (** Total cost so far. *)
end
