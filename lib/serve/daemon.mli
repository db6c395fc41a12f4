(** The sharded session-serving daemon behind [msp serve].

    A daemon owns many concurrent incremental
    {!Mobile_server.Engine.Session}s.  Sessions hash to one of
    [shards] shards by id ({!shard_of_session}); each shard owns its
    sessions {e exclusively}, so stepping needs no locks — parallelism
    comes from draining different shards on different domains of a
    private {!Exec.Pool}.  All client traffic is {!Frame} bytes:
    {!submit} enqueues one encoded request frame and returns a ticket,
    {!await} redeems the ticket for the encoded reply frame.

    {b Batching and backpressure.}  Submitted frames buffer in bounded
    per-shard queues and are processed in bulk by {!flush} (one pool
    task per non-empty shard).  A {!submit} that finds its target
    shard's queue full triggers a flush first — the caller {e blocks};
    frames are never dropped and never reordered.  Within a shard,
    frames are processed strictly in submission order, so a session's
    steps apply in the order the client sent them.

    {b Determinism.}  A session's replies are a pure function of its
    [(seed, start, request rounds)] — the daemon adds no entropy and no
    cross-session coupling, so every trajectory is bit-identical to an
    in-process replay ({!session_rng} builds the replica's PRNG) at any
    shard count and any [jobs] count.  [bench serve] enforces this.

    {b Fault containment.}  A malformed frame earns an [Error] reply
    and nothing else — it cannot kill a shard or perturb any session.
    {!kill_shard} simulates a shard crash: volatile session state is
    lost, but each session's journal survives unless [lose_journal] is
    set, and the shard transparently rebuilds a journaled session from
    it on its next frame — the session {e resumes exactly}, bit for
    bit.  A journal holds the session's seed, its state after its last
    accepted round ({!Mobile_server.Engine.Session.restore}) and the
    rounds since that state, which only a [warm_start] session keeps
    (see {!create}).  With
    [lose_journal], subsequent frames for the lost sessions get a clean
    [Error Unknown_session] while every other session keeps serving.

    {b Threading contract.}  The public API is driver-threaded: one
    coordinating thread calls [submit]/[await]/[flush]/[kill_shard];
    the daemon parallelizes internally.  This mirrors the rest of the
    repo's {!Exec} usage (see docs/serve.md). *)

type t

type ticket
(** A claim on one submitted frame's reply. *)

val create :
  ?shards:int -> ?jobs:int -> ?queue_capacity:int -> ?journal:bool ->
  config:Mobile_server.Config.t -> unit -> t
(** [create ~config ()] starts a daemon serving MtC sessions under
    [config].  [shards] defaults to 8; [jobs] (worker domains, default
    [Exec.jobs ()]) is capped at [shards] — [jobs = 1] runs shard
    drains inline with no pool at all; [queue_capacity] (default 1024)
    bounds each shard's pending queue.  [journal] (default true)
    controls crash-recovery journaling.  A cold session's journal is
    its state after its last accepted round, overwritten in place, so
    it costs O(1) words whatever the session's length.  Under
    [config.warm_start] the stepper also holds the previous Weiszfeld
    center, which no record exposes, so the journal keeps the opening
    state plus every accepted round: O(steps).  With [~journal:false]
    no journal is kept, at the price that {!kill_shard} loses the
    shard's sessions for good (as if [lose_journal] were set).  Replies
    are bit-identical either way; journaling only affects recovery.
    Raises [Invalid_argument] on non-positive parameters. *)

val config : t -> Mobile_server.Config.t
(** The model parameters every served session runs under. *)

val shard_count : t -> int

val shard_of_session : t -> int64 -> int
(** The shard that owns a session id — a pure hash, stable for the
    daemon's lifetime. *)

val session_rng : seed:int -> Prng.Xoshiro.t
(** The PRNG a daemon session draws from, exposed so oracles can build
    bit-exact in-process replicas:
    [Engine.Session.create ~rng:(session_rng ~seed) config Mtc.algorithm]
    mirrors a daemon session opened with [seed]. *)

val submit : t -> string -> ticket
(** Enqueue one encoded request frame.  Blocks (by flushing) if the
    target shard's queue is full.  Malformed frames are accepted here
    and answered with an [Error Bad_frame] reply at flush. *)

val await : t -> ticket -> string
(** The encoded reply frame for a submitted request, flushing first if
    it is still pending.  Tickets are single-use claims but [await] is
    idempotent. *)

val call : t -> string -> string
(** [submit] then [await] — one synchronous round trip. *)

val flush : t -> unit
(** Process every pending frame, one pool task per non-empty shard.
    No-op when nothing is pending. *)

val live_sessions : t -> int
(** Sessions currently open across all shards: with journaling on,
    this counts the sessions of a killed shard that will be rebuilt
    from their journals on next touch. *)

val kill_shard : ?lose_journal:bool -> t -> int -> unit
(** Crash shard [i] (modulo the shard count): discard its live session
    states.  With [lose_journal] (default false) the journals are
    discarded too and the sessions are gone for good; otherwise each
    is rebuilt from its journal on next touch: its journaled state is
    restored in O(1) and its tail of rounds (empty unless
    [config.warm_start]) replayed.  Pending frames survive (they are
    the daemon's, not the shard's). *)

val shutdown : t -> unit
(** Flush pending work, then stop and join the worker domains.
    Idempotent.  The daemon keeps answering after shutdown — frames
    just process in the calling thread. *)
