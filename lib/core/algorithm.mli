(** The online-algorithm interface.

    An algorithm is a named factory: given the model {!Config}, a start
    position, and (for randomized strategies) a PRNG, it returns a
    {e stepper} — a stateful closure that consumes one round of requests
    and answers with the server's new position.

    In every variant the algorithm sees the round's requests before
    moving (the paper's model; in the Serve-first variant the requests
    are merely {e charged} at the old position).  The {!Engine} clamps
    each answer to the online movement budget [(1+δ)·m], so a buggy
    strategy cannot cheat on feasibility — it just performs worse. *)

type stepper = Geometry.Vec.t array -> Geometry.Vec.t
(** [stepper requests] returns the server position after this round. *)

type t = {
  name : string;
  make :
    ?rng:Prng.Xoshiro.t -> Config.t -> start:Geometry.Vec.t -> stepper;
}

val of_policy :
  name:string ->
  (Config.t -> server:Geometry.Vec.t -> Geometry.Vec.t array ->
   Geometry.Vec.t) ->
  t
(** [of_policy ~name f] lifts a memoryless policy into an algorithm:
    each round, [f config ~server requests] proposes a target, which is
    clamped to the online budget and becomes the new position.  The
    position bookkeeping is handled by the wrapper. *)

val stay_put : t
(** The trivial algorithm that never moves; a sanity baseline. *)
