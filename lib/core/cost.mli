(** Cost accounting for one round and for whole trajectories.

    Implements the paper's objective (Section 2): a round in which the
    server moves from [p] to [p'] while requests [vs] are active costs

    - Move-first:  [D·d(p, p') + Σ_i d(p', v_i)]
    - Serve-first: [Σ_i d(p, v_i) + D·d(p, p')]

    Both the online algorithm and the offline optimum are charged by the
    same functions; only their movement budgets differ. *)

type breakdown = {
  move : float;  (** Total movement cost [D · distance moved]. *)
  service : float;  (** Total request-serving cost. *)
}

val total : breakdown -> float
(** [total b] is [b.move +. b.service]. *)

val zero : breakdown

val add : breakdown -> breakdown -> breakdown

val service_cost : Geometry.Vec.t -> Geometry.Vec.t array -> float
(** [service_cost p vs] is [Σ_i d(p, v_i)]. *)

val step :
  Config.t -> from:Geometry.Vec.t -> to_:Geometry.Vec.t ->
  Geometry.Vec.t array -> breakdown
(** [step config ~from ~to_ vs] is the cost of one round under
    [config.variant]. *)

val trajectory :
  Config.t -> start:Geometry.Vec.t -> Geometry.Vec.t array ->
  Instance.Packed.t -> breakdown
(** [trajectory config ~start positions p] prices a full server
    trajectory against a packed instance: [positions.(t)] is the
    server's position at the end of round [t], with [start] the
    position before round 0.  [positions] must have length
    [Instance.Packed.length p] and matching dimension.  The result is
    bit-identical to adding {!step}'s breakdowns over the rounds in
    order from {!zero}, as the engine does; the service sums iterate
    the flat request buffer.  No movement-limit check is performed
    here — use {!feasible} for that. *)

val feasible :
  limit:float -> start:Geometry.Vec.t -> Geometry.Vec.t array -> bool
(** [feasible ~limit ~start positions] checks that every consecutive
    move (including [start] to [positions.(0)]) is at most [limit],
    within {!Config.budget_slack}.  A non-finite step distance (NaN or
    infinite coordinates anywhere in the trajectory) is infeasible:
    garbage positions can never pass as a legal trajectory. *)
