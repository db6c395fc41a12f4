(** The deterministic simulation harness: execute an op list against a
    live system-under-test and oracle every answer.

    One run owns: an incremental {!Mobile_server.Engine.Session} (MtC,
    1-D, [D = 2], [m = 1], [δ = 0.5]) mirrored by a growing request
    {e prefix}; the process-wide {!Offline.Opt_cache} pointed at a
    fresh private temp directory; and, from the first serve op on, a
    {!Serve.Daemon} with one in-process mirror per daemon session.

    The oracle, applied per-op and in one implicit final checkpoint:

    - session cost/position/rounds ≡ batch [Engine.run] on the prefix,
      bitwise;
    - cached offline optimum ≡ a cold [Line_dp] recompute, bitwise —
      including immediately after injected disk faults;
    - invalid rounds raise [Invalid_argument] and leave the session
      untouched;
    - fleet and pool replays of the prefix reproduce the live session
      bit for bit (the pool replay includes a submit-after-shutdown
      batch, pinning {!Exec.Pool}'s caller-runs contract);
    - an {!Analysis.Audit} of the prefix produces a clean report (no
      clamped proposals, no non-finite values, deterministic replay);
    - every serve-daemon reply ({!Serve.Daemon}, spoken through the
      {!Serve.Frame} codec — 3 shards, 2 workers, an 8-deep queue so
      blocking backpressure is reachable) matches a bit-exact
      in-process session mirror; after a shard kill its sessions
      either resume exactly (journal kept) or answer a clean
      [Unknown_session] (journal lost), and mangled frames earn a
      precise [Bad_frame] error while the daemon keeps serving.

    A run is a pure function of [(seed, ops, inject flags)]: every PRNG
    is a {!Prng.Stream} derived from the seed, the disk store starts
    empty, and all process-global state it touches (cache contents,
    disk directory, fault arms) is restored on exit.  {!result_to_string}
    of two runs with equal inputs is byte-identical — the determinism
    contract [msp simtest] and the shrinker rely on. *)

type outcome =
  | Pass
  | Fail of {
      index : int;  (** 0-based position in the op list. *)
      op : Op.op option;  (** [None] for the implicit final checkpoint. *)
      reason : string;
    }

type result = {
  outcome : outcome;
  ops_run : int;  (** Ops fully executed before a failure (or all). *)
  checks : int;  (** Oracle comparisons performed. *)
  faults_armed : int;  (** Disk faults injected. *)
  quarantined : int;  (** Corrupt disk entries removed during the run. *)
}

val gen_ops : seed:int -> count:int -> unit -> Op.op list
(** The op list for a seed — pure: same [(seed, count)] gives the same
    list.  [run ~seed ~count] executes exactly this list. *)

val run_ops :
  ?inject_bug:bool -> ?inject_audit_bug:bool -> seed:int -> Op.op list ->
  result
(** Execute an explicit op list ([--replay] and the shrinker's
    predicate).  [inject_bug] plants a deliberate defect — the session
    is fed all but the last request of every multi-request round while
    the prefix records the full round — so tests can watch the oracle
    catch it and the shrinker minimize it.  [inject_audit_bug] swaps
    the audited algorithm for one that proposes moves beyond the
    online budget: the {!Analysis.Audit} oracle must flag the clamped
    proposals, and the failure must shrink to a replayable artifact
    just like any other. *)

val run :
  ?inject_bug:bool -> ?inject_audit_bug:bool -> seed:int -> count:int ->
  unit -> result
(** [run_ops] over [gen_ops]. *)

val fails :
  ?inject_bug:bool -> ?inject_audit_bug:bool -> seed:int -> Op.op list ->
  bool
(** [run_ops] collapsed to "did it fail?" — the {!Shrink.minimize}
    predicate. *)

val result_to_string : result -> string
(** Stable multi-line rendering; equal inputs give equal bytes. *)
