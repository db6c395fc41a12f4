(** An outside mirror of {!Serve.Daemon}'s per-shard queue occupancy.

    The daemon flushes inside [submit] when the target shard's queue is
    full; from outside such a submit looks like any other.  Tracking
    occupancy from {!Serve.Daemon.shard_of_session} and the queue
    capacity the benchmark passed to [Daemon.create] recognises each
    submit that will flush, so its time is booked as flush time. *)

type t

val create : shards:int -> capacity:int -> t

val submit : t -> int -> bool
(** [submit t shard] records one frame submitted to [shard] and tells
    whether that submit flushes first.  Call it before
    [Daemon.submit]. *)

val flush : t -> unit
(** Record an explicit [Daemon.flush]: every queue is empty after it. *)

val backpressure_flushes : t -> int
(** Submits so far that flushed. *)
