(** Runtime invariant auditor.

    Plays a run once through {!Mobile_server.Engine.iter} and reads each
    round's {!Mobile_server.Engine.step_record}.  The engine has already
    tested the algorithm's raw answer against the online budget and
    kept both ([proposed], [clamped]), so the auditor leaves the
    algorithm as it is and tracks no server position or tolerance of
    its own.
    It certifies the model invariants the paper's theorems assume:

    - {b feasibility} — each proposed move is at most [(1+δ)·m]: a
      round the engine clamped is reported with the distance from the
      previous round's position to the raw proposal;
    - {b finiteness} — no NaN/infinite coordinate ever enters a
      proposal, a position, or a cost term;
    - {b cost sanity} — per-round move and service costs are
      non-negative;
    - {b determinism} — rerunning with the same seed reproduces the
      trajectory bit-for-bit.

    After a non-finite proposal the engine's position is NaN for the
    rest of the run: every later round reports a non-finite position,
    and none reports a clamp, since no budget test can pass or fail
    from there.  A request or a proposal of the wrong dimension never
    reaches a report: {!Mobile_server.Instance.make} rejects the
    request, and the engine raises [Invalid_argument] on the
    proposal. *)

val run :
  ?seed:int -> ?check_determinism:bool -> Mobile_server.Config.t ->
  Mobile_server.Algorithm.t -> Mobile_server.Instance.t ->
  Report.t * Mobile_server.Engine.run
(** [run config alg inst] plays [alg] over [inst] (PRNG derived from
    [seed], default 0) and returns the report together with the
    ordinary engine run, which auditing leaves unchanged.  The report
    lists its findings in round order.  When [check_determinism]
    (default true) the instance is replayed with an identically-seeded
    PRNG and the two trajectories compared coordinate-wise. *)
