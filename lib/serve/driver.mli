(** Drive an {!Workloads.Open_world} schedule through a {!Daemon} and
    check the serve≡engine identity wall.

    The driver is the single coordinating thread the daemon's API
    expects: per tick it submits the tick's open/step/close frames (all
    through the {!Frame} codec — the driver talks to the daemon only in
    bytes), flushes, then decodes every reply.  The schedule streams
    from a {!Workloads.Open_world.spec} (no plan array), and each
    session keeps only a served-round count and a chained digest of its
    [Stepped] replies: every round's position, move cost, service cost
    and clamp flag.  When the session closes the driver replays it
    through an in-process {!Mobile_server.Engine.run_stream} over the
    session's workload cursor, with the same PRNG
    ({!Daemon.session_rng}), and compares {e bitwise}: the per-round
    digests (position, move, service and clamp flag of every round),
    the cumulative move/service costs, the round and clamp counts and
    the final position.  Any divergence is reported;
    [bench serve] and [msp serve] turn it into a non-zero exit.
    Driver-side memory is O(live sessions), which is what serves the
    million-live-session bench point.

    Replies depend only on the frames, and the frames only on the spec:
    {!Workloads.Open_world.iter_stream} is a pure function of it, and
    test_stream pins its callbacks against a materialized reference
    loop over [of_spec spec], so a journaled and an unjournaled daemon,
    or a daemon at any [jobs], answer with byte-identical reply
    streams.

    Clocks are injected ([?now]) because this library must stay
    wall-clock-free (the determinism-clock lint): the bench passes
    [Unix.gettimeofday], tests pass nothing and get no latencies. *)

type report = {
  sessions : int;  (** Sessions opened (and, when [ok], closed). *)
  steps : int;  (** Step replies received. *)
  errors : int;  (** [Error] replies received (0 on a healthy run). *)
  peak_live : int;  (** Daemon-reported live-session high-water mark. *)
  latencies : float array;
      (** Per-step {e sojourn} seconds (submit→reply, submission
          order); empty unless [~now] was given.  Under the driver's
          tick batching a step's sojourn is dominated by queueing
          behind the rest of its tick, so its p99 measures saturation,
          not service speed — see [service_latencies] for the latter.
          Feed to {!Stats.Quantile.quantile}. *)
  service_latencies : float array;
      (** Per-tick {e service} seconds per step: each tick's flush
          wall time divided by the step frames in the batch, one
          sample per tick that served any step; empty unless [~now]
          was given.  This is the daemon's actual per-step processing
          time and the number [bench serve] headlines as step
          latency. *)
  mismatches : string list;
      (** Human-readable identity violations, capped at {!max_reported};
          empty iff serve ≡ engine held bitwise for every session. *)
  reply_digest : string;
      (** Hex digest chained over every reply frame in submission
          order.  Equal digests across daemons ⇒ byte-identical reply
          streams; the jobs=1 ≡ jobs=N and journal on ≡ off gates
          compare exactly this. *)
}

val max_reported : int
(** Mismatch descriptions kept per run (the count still reflects all). *)

val ok : report -> bool
(** No mismatches, no error replies, every session closed. *)

val run :
  ?now:(unit -> float) -> Daemon.t -> Workloads.Open_world.spec -> report
(** [run daemon spec] serves the schedule [spec] describes via
    {!Workloads.Open_world.iter_stream} — never materializing plans,
    instances or trajectories — and verifies every session at close
    against {!Mobile_server.Engine.run_stream} under {!Daemon.config}
    with the daemon's session PRNG.  The daemon is left running (not
    shut down), so a caller can serve several schedules back to
    back. *)
