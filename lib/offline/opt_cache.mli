(** Content-addressed memo for offline optima.

    The experiment sweeps (ratio curves, parameter grids, the CLI's
    [--opt] paths) re-solve the same instance under the same model many
    times: replicate streams are deterministic, so the instances repeat
    across knob values, warm reruns and jobs counts.  This cache keys an
    optimum cost by the MD5 digest of

    - the solver id including its resolution knobs (grid density,
      iteration budgets),
    - the model parameters an offline solve can observe — [d_factor],
      the offline budget [move_limit] and the {!Mobile_server.Variant} —
      as raw IEEE bits ([delta] is excluded: it affects online runs
      only, so sweeping it hits the same entries),
    - the instance's {!Mobile_server.Instance.Packed.content_digest}
      (the memoized MD5 of its serialization — covering every IEEE bit
      of every coordinate, paid once per instance rather than once per
      lookup).

    Because the digest covers every bit the solver can see, a hit
    returns exactly the float the solve would have produced: cached and
    uncached sweeps are byte-identical, at any [--jobs] count.  The
    in-memory table is a mutex-protected LRU shared by all worker
    domains; the optional on-disk store (one small file per entry,
    written atomically) persists optima across processes.  Both layers
    are best-effort — any disk failure degrades to an uncached solve.

    Disk entries are versioned binary, following {!Serve.Frame}'s
    conventions: a 4-byte magic ["MSPO"], a version byte, then the
    optimum cost as raw big-endian IEEE-754 bits — 13 bytes total,
    decoded precisely and totally (see docs/offline.md).  An entry with
    the wrong length, magic or version — including entries written by
    older releases — is a miss and is quarantined, exactly like a
    corrupt one. *)

type stats = {
  hits : int;  (** In-memory hits. *)
  misses : int;  (** Full misses — an actual solve ran. *)
  disk_hits : int;  (** Served from the on-disk store. *)
  evictions : int;  (** LRU evictions from the in-memory table. *)
}

val line_dp :
  ?grid_per_m:int -> Mobile_server.Config.t ->
  Mobile_server.Instance.Packed.t -> float
(** Cached {!Line_dp.optimum_packed}; defaults mirror the solver's. *)

val convex :
  ?max_iter:int -> ?sweeps:int -> Mobile_server.Config.t ->
  Mobile_server.Instance.Packed.t -> float
(** Cached {!Convex_opt.optimum_packed}; defaults mirror the solver's. *)

val find_or_compute :
  solver:string -> Mobile_server.Config.t ->
  Mobile_server.Instance.Packed.t -> (unit -> float) -> float
(** [find_or_compute ~solver config packed compute] is the generic memo:
    [solver] must determine the computation (including every resolution
    knob) given the config and instance.  [compute] runs outside the
    cache lock, so concurrent domains may duplicate a solve for the same
    key; values are pure functions of the key, so this is harmless. *)

val find_or_compute_keyed :
  solver:string -> key:string -> (unit -> float) -> float
(** [find_or_compute_keyed ~solver ~key compute] memoizes an optimum
    whose inputs are not a Euclidean instance: [key] must be a
    canonical byte string covering every bit the computation can
    observe (the graph Page Migration solver keys itself by
    [Graph.serialize] bytes, the model's [D] and the instance; see
    {!Network.Pm_offline}).  Shares the LRU, the disk store and the
    statistics with the config-keyed entries; digests never collide
    across the two keying schemes. *)

val set_enabled : bool -> unit
(** Turn the cache off (every call computes) or back on.  On by
    default. *)

val set_capacity : int -> unit
(** Resize the in-memory LRU (default 512 entries), evicting down to
    the new size.  Raises [Invalid_argument] if the capacity is < 1. *)

val set_disk_dir : string option -> unit
(** Set or clear the on-disk store directory (created on first write).
    Initialized from the [MSP_OPT_CACHE_DIR] environment variable. *)

val disk_dir : unit -> string option
(** The current on-disk store directory, if any. *)

val clear : unit -> unit
(** Drop every in-memory entry (the on-disk store is untouched). *)

val stats : unit -> stats
(** Hit/miss counters since start or {!reset_stats}. *)

val reset_stats : unit -> unit
(** Zero the counters. *)

(** Deterministic fault injection for the disk store — simulation-testing
    hooks used by {!Simtest} (see [docs/simtest.md]).

    Each arm is one-shot: it is consumed by the next disk read or write
    and then clears, so an op sequence maps to a fixed set of injected
    failures.  With nothing armed the store runs exactly the production
    code path.  The store's contract under any failure (injected or
    real) is: a corrupt, truncated or unreadable entry is a {e miss} —
    the value recomputes from the digest's inputs, invalid files are
    quarantined (removed), and no garbage float ever enters the
    in-memory LRU. *)
module Faults : sig
  type read_corruption =
    | Sys_err  (** The next read raises [Sys_error] internally (an IO
                   error): treated as a miss. *)
    | Truncate  (** The next read finds the entry truncated (a short
                    file — a bare magic with nothing after it): miss +
                    quarantine. *)
    | Garbage  (** The next read finds garbage bytes (right length,
                   wrong magic): miss + quarantine. *)

  val fail_next_write : unit -> unit
  (** Arm the next {e disk write} to fail with an internal [Sys_error]
      (the entry is simply not persisted — the documented degraded
      mode). *)

  val corrupt_next_read : read_corruption -> unit
  (** Arm the next {e disk read} with the given corruption. *)

  val clear : unit -> unit
  (** Disarm any pending fault. *)

  val quarantined : unit -> int
  (** Number of invalid entries removed from the disk store since
      process start — lets tests assert the quarantine path actually
      ran. *)
end
