(** The simulation-testing op language.

    An op is one action against the system under test — the incremental
    {!Mobile_server.Engine.Session}, the {!Multi.Fleet_engine}, the
    {!Offline.Opt_cache} (memory + disk store) and the serve daemon
    ({!Serve.Daemon}).  A simtest run is a pure function
    of [(seed, count)]: ops are drawn from {!Prng.Stream} substreams
    with one fixed weighted mix (see {!gen}), so the same seed always
    yields the same op list — and a failing list serializes to a
    replayable artifact (see {!Replay} and [docs/simtest.md]). *)

type bad_request =
  | Dim_mismatch  (** A request of the wrong dimension. *)
  | Non_finite  (** A request with a NaN coordinate. *)

(** Ways a {!Serve_bad_frame} op mangles a wire frame. *)
type bad_frame =
  | Truncated  (** Fewer bytes than a length prefix. *)
  | Bad_version  (** A version tag the codec does not speak. *)
  | Non_finite_coord  (** A structurally sound frame smuggling a NaN. *)

type corruption = Offline.Opt_cache.Faults.read_corruption =
  | Sys_err
  | Truncate
  | Garbage  (** Re-exported so op lists name disk faults directly. *)

type op =
  | Step of float array array
      (** Feed one round of requests (1-D points) to the live session
          and record it in the batch-replay prefix. *)
  | Bad_step of bad_request
      (** Feed an invalid round: must raise [Invalid_argument] and
          leave the session bit-for-bit unchanged. *)
  | Reset
      (** Verify the prefix oracle, then open a fresh session
          (generation + 1) with an empty prefix. *)
  | Checkpoint
      (** Full oracle sweep: session ≡ batch [Engine.run] on the
          prefix, cached OPT ≡ cold recompute. *)
  | Opt_query
      (** Cached offline optimum of the prefix ≡ a cold (cache-free)
          recompute, bitwise. *)
  | Cache_evict
      (** Force the {!Offline.Opt_cache} LRU down to one entry. *)
  | Cache_clear  (** Drop every in-memory cache entry. *)
  | Disk_write_fail
      (** Arm the next disk-store write to fail ([Sys_error]). *)
  | Disk_read_corrupt of corruption
      (** Arm the next disk-store read to hit a corrupt entry. *)
  | Fleet_check of int
      (** Replay the prefix through a [k]-server fleet twice with
          identically seeded PRNGs: runs must agree bitwise. *)
  | Concurrent_step of int
      (** Replay the prefix on [k] fresh sessions fanned out over a
          private {!Exec.Pool} (including a submit-after-shutdown
          batch): every replica must equal the live session bitwise. *)
  | Serve_open
      (** Open a fresh session on the serve daemon (through the
          {!Serve.Frame} codec) and start a bit-exact in-process
          mirror. *)
  | Serve_step of int * float array array
      (** Feed one round to the [t]-th live daemon session (mod the
          live count; no-op when none): the [Stepped] reply must match
          the mirror's {!Mobile_server.Engine.step_record} bitwise.  A
          session whose journal was lost must answer
          [Error Unknown_session] instead. *)
  | Serve_checkpoint of int
      (** [Snapshot] of the [t]-th live daemon session ≡ the mirror's
          cumulative rounds/clamps/position/costs, bitwise. *)
  | Serve_close of int
      (** Close the [t]-th live daemon session; the final snapshot must
          match the mirror, and the id must be gone afterwards. *)
  | Serve_kill of int * bool
      (** Crash daemon shard [t mod shards].  With [lose = false] the
          journals survive and every session must {e resume exactly}
          (later replies still match the mirrors bit for bit); with
          [lose = true] the shard's sessions must fail cleanly with
          [Error Unknown_session] while other shards keep serving. *)
  | Serve_bad_frame of bad_frame
      (** Send a mangled frame: the daemon must answer a precise
          [Error Bad_frame] and keep serving — a hostile frame never
          kills a shard. *)
  | Fleet_opt_check of int
      (** Differential fleet-OPT oracle on a ≤ 6-request truncation of
          the prefix: {!Multi.Fleet_offline.optimum_flow} must equal
          the brute-force enumeration bitwise, and the work-function
          solver must replay deterministically with an estimate no
          smaller than the flow optimum. *)

val gen : Prng.Xoshiro.t -> op
(** [gen g] draws one op from a fixed, step-heavy mix with a few
    percent of every fault and cross-check.  Consumes a bounded,
    kind-dependent number of PRNG values, so an op sequence is a pure
    function of the generator state. *)

val to_string : op -> string
(** One-line textual form; floats travel as IEEE-754 bits in hex, so
    parsing is bit-lossless. *)

val of_string : string -> (op, string) result
(** Inverse of {!to_string}; [Error] names the offending token. *)

val simplify : op -> op list
(** Strictly simpler candidate replacements for one op (fewer requests
    in a round, smaller fan-outs), tried by the shrinker after list
    minimization.  The result never contains the op itself, and every
    candidate is strictly smaller, so simplification terminates. *)
