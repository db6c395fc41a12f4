(** Deterministic parallel execution over OCaml 5 domains.

    The experiment harness sweeps (algorithm × seed × horizon × δ) cells
    that are mutually independent; this module fans such cells out over
    a small pool of domains while keeping every result {e bit-identical}
    to a sequential run.  The contract (see [docs/parallel.md]):

    - work is expressed as a pure function of the cell index — tasks
      never share mutable state, and in particular never share PRNG
      state (derive a child seed per cell with {!derive_seed} or
      [Prng.Stream.replicate] {e before} fanning out);
    - results land in a slot per index, so the scheduling order is
      invisible; a caller that reduces the result array folds it in
      index order, so floating-point rounding is independent of
      [jobs].

    Consequently [map f] returns the same array at any [jobs] count,
    including [jobs = 1] (which bypasses the pool entirely).

    The pool uses a bounded work queue; a submitter that finds the
    queue full runs the task itself (caller-runs overflow), and a
    submitter waiting for its cells helps drain the queue.  Nested
    {!map} calls therefore compose without deadlock: inner fan-outs
    share the same pool instead of spawning more domains. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count () - 1], at least 1 — leave one
    core for the coordinating domain. *)

val set_jobs : int -> unit
(** Set the global worker count used when {!map} is called without an
    explicit [?jobs].  [set_jobs 1] forces sequential execution.
    Raises [Invalid_argument] if [jobs < 1]. *)

val jobs : unit -> int
(** The current global worker count; {!default_jobs} until {!set_jobs}
    is called. *)

val derive_seed : parent:int -> int -> int
(** [derive_seed ~parent i] is a non-negative child seed for cell [i],
    obtained by hashing [(parent, i)] through SplitMix64.  Distinct
    [(parent, i)] pairs give statistically independent seeds, and the
    derivation never touches shared generator state — the seed for cell
    [i] is the same whether cells run sequentially or in parallel.
    Raises [Invalid_argument] if [i < 0]. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map f arr] is [Array.map f arr], computed on the pool when
    [jobs > 1] and [Array.length arr > 1].  [f] must be pure up to its
    own private state.  The first exception raised by any cell (in
    index order of completion) is re-raised in the caller after all
    cells finish.  Raises [Invalid_argument] if [jobs < 1]. *)

val mapi : ?jobs:int -> (int -> 'a -> 'b) -> 'a array -> 'b array
(** Indexed {!map}. *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** {!map} over a list, preserving order. *)

module Pool : sig
  type t
  (** A fixed set of worker domains sharing one bounded task queue. *)

  val create : jobs:int -> t
  (** [create ~jobs] spawns [jobs] worker domains.  Raises
      [Invalid_argument] if [jobs < 1]. *)

  val size : t -> int
  (** Number of worker domains. *)

  val run : t -> tasks:int -> (int -> unit) -> unit
  (** [run pool ~tasks f] executes [f 0 .. f (tasks-1)] on the pool and
      returns when all have finished.  The caller helps drain the
      queue while waiting, so [run] may be called from inside a task.
      The first exception raised by any task is re-raised here. *)

  val shutdown : t -> unit
  (** Drain outstanding tasks, stop the workers and join them.
      Idempotent and synchronous: concurrent callers all return only
      once every worker domain has been joined.  Work submitted to a
      pool that is shutting down (or already shut down) runs in the
      submitting domain instead — {!run} racing a [shutdown] still
      completes with the same results, it just stops getting help.
      Must not be called from inside one of the pool's own tasks (the
      join would wait on the calling domain). *)
end
