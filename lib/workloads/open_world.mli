(** Open-world serving schedule: Poisson arrivals, exponential
    lifetimes, per-session request streams from the workload catalog.

    The closed-world generators in this library each build one finite
    {!Mobile_server.Instance} up front.  A serving daemon faces the
    opposite regime — sessions arrive over time, live a while, and
    leave — so this module generates a {e schedule}: per tick, a
    Poisson number of new sessions opens (rate [arrival_rate]), each
    with an exponential lifetime (mean [mean_lifetime] ticks, capped at
    the schedule horizon) and its own seeded request stream drawn from
    the catalog ({!Clusters}, {!Bursts}, {!Random_walk} round-robin).
    This mirrors the mobile-edge-computing simulator's [WholeMap] tick
    loop (SNIPPETS.md §2): tick the world, admit arrivals, step every
    live session once, retire the dead.

    {b Determinism.}  The whole schedule is a pure function of
    [(dim, seed, ticks, rates)]: the arrival process draws from one
    named stream in tick order, and each session's request stream is
    regenerated on demand from its own derived seed
    ({!Exec.derive_seed}), never from shared generator state.  The same
    seed therefore yields a byte-identical schedule — and byte-identical
    session instances — no matter how many domains later serve it; the
    property tests pin this via {!fingerprint}. *)

type plan = {
  id : int64;  (** Session id, unique and increasing in arrival order. *)
  seed : int;  (** Session seed; also drives {!Serve.Daemon.session_rng}. *)
  family : int;
      (** Catalog family index: 0 {!Clusters}, 1 {!Bursts},
          2 {!Random_walk} (round-robin by id). *)
  arrival : int;  (** Tick at which the session opens (first step same tick). *)
  rounds : int;  (** Lifetime in ticks; [>= 1], ends within the horizon. *)
}

type t

type spec = {
  s_dim : int;
  s_seed : int;
  s_ticks : int;
  s_arrival_rate : float;
  s_mean_lifetime : float;
  s_initial : int;
}
(** The generation parameters alone — everything the schedule is a
    pure function of.  A [spec] is all {!iter_stream} needs: the
    schedule can be served without ever materializing its plans. *)

val spec :
  ?arrival_rate:float -> ?mean_lifetime:float -> ?initial:int ->
  dim:int -> seed:int -> ticks:int -> unit -> spec
(** [spec ~dim ~seed ~ticks ()] validates the parameters.
    [arrival_rate] (default 4.0) is the Poisson arrival intensity per
    tick; [mean_lifetime] (default 16.0) the exponential lifetime mean
    in ticks; [initial] (default 0) extra sessions opened at tick 0, so
    a bench can start at steady-state occupancy instead of ramping up.
    Raises [Invalid_argument] on non-positive parameters. *)

val of_spec : spec -> t
(** Materialize the schedule a spec describes. *)

val spec_of : t -> spec
(** The parameters a materialized schedule was generated from. *)

val dim : t -> int
val ticks : t -> int
val sessions : t -> int
(** Total sessions over the whole schedule. *)

val peak_live : t -> int
(** Maximum number of concurrently live sessions at any tick. *)

val plans : t -> plan array
(** All plans, ordered by [(arrival, id)].  A borrow; treat as
    read-only. *)

val plan_cursor :
  spec -> plan -> Geometry.Vec.t * (unit -> Geometry.Vec.t array)
(** The session's request stream in streaming form: its start position
    and a thunk producing one round per call ({!Clusters.cursor} et
    al), regenerated deterministically from [plan.seed], with O(1) live
    state.  The only place a plan's family is dispatched. *)

val plan_instance : t -> plan -> Mobile_server.Instance.t
(** The session's full request stream as a closed instance: the
    {!plan_cursor} start and the thunk's first [plan.rounds] rounds,
    bit-identical to the family's [generate] on the same stream.  The
    closed-instance view of a plan, for replaying one session through
    [Engine.run] or auditing it; nothing is cached. *)

val iter_stream :
  spec ->
  open_:(plan -> start:Geometry.Vec.t -> unit) ->
  step:(plan -> round:int -> Geometry.Vec.t array -> unit) ->
  close:(plan -> unit) ->
  tick_end:(tick:int -> unit) ->
  unit
(** Drive the schedule tick by tick.  Per tick, in this fixed order:
    arrivals open (id order; [open_] receives the plan and the
    session's opening position, and is called as the plan is
    admitted), every live session steps once (id order; [round] counts
    from 0), sessions whose last round just played close (id order),
    then [tick_end].

    Plans come from the same admission draws {!of_spec} collects (same
    draws, same order), so the plans handed to [open_] are
    field-identical to [plans (of_spec spec)].  No plan array is built:
    each live session holds its plan and {!plan_cursor}, so live state
    is O(concurrently live sessions) and schedules with millions of
    total sessions stream in bounded memory.  The request array passed
    to [step] is only valid for the duration of the callback. *)

val fingerprint : t -> string
(** Hex digest of the complete schedule (every plan field plus the
    generation parameters) — two schedules with equal fingerprints are
    byte-identical.  The jobs-invariance property test compares this
    across [--jobs] settings. *)
