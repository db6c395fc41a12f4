(** Simulation engine for server fleets (the k-server extension). *)

type run = {
  algorithm : string;
  config : Mobile_server.Config.t;
  fleets : Geometry.Vec.t array array;
      (** [fleets.(t)] is the fleet after round [t]. *)
  cost : Mobile_server.Cost.breakdown;
}

val run :
  ?rng:Prng.Xoshiro.t -> k:int -> Mobile_server.Config.t ->
  Fleet_algorithm.t -> Mobile_server.Instance.t -> run
(** [run ~k config alg inst] plays [alg] with [k] servers (all starting
    at [inst.start]) over the instance; every server's move is clamped
    to the online budget before costs are charged. *)

val total_cost :
  ?rng:Prng.Xoshiro.t -> k:int -> Mobile_server.Config.t ->
  Fleet_algorithm.t -> Mobile_server.Instance.t -> float
(** Total cost without retaining the trajectory. *)

val replay :
  Mobile_server.Config.t -> start:Geometry.Vec.t array ->
  Geometry.Vec.t array array -> Mobile_server.Instance.t ->
  Mobile_server.Cost.breakdown
(** Price a precomputed fleet trajectory, enforcing the offline budget
    [m] per server per round.  Raises [Invalid_argument] if the
    trajectory's length differs from the instance's, if some move
    exceeds the budget or is not finite (see {!Fleet.feasible}), or if
    some round changes the number of servers. *)
