(** Competitive-ratio measurement and the experiments' one replicate
    fan-out.

    Every number a catalog table averages over seeds comes through
    {!cells}: it derives one replicate stream per seed before the
    fan-out, runs the cells through {!Exec.mapi} and returns their
    results in seed order.  {!column_means} folds such per-seed rows in
    that order, so a table is bit-identical at any jobs count (see
    [docs/parallel.md]).

    Two ways to obtain the denominator (the optimal cost):

    - {!vs_opt}: the instance optimum of {!Offline.Opt_cache.optimum} —
      the exact line DP in 1-D, the convex solver in any other
      dimension (a true upper bound on OPT, so the measured ratio is a
      {e lower} bound);
    - {!vs_construction}: the adversary's own trajectory from a
      lower-bound construction (also an upper bound on OPT — the exact
      comparator the paper's proofs use).

    The samplers average over the replicates of {!cells}; the replicate
    stream also seeds randomized algorithms. *)

type sample = {
  ratios : float array;  (** One competitive-ratio sample per seed. *)
  mean : float;
  ci_lo : float;  (** 95% bootstrap CI on the mean. *)
  ci_hi : float;
}

val cells :
  seeds:int -> Prng.Xoshiro.t -> (int -> Prng.Xoshiro.t -> 'a) -> 'a array
(** [cells ~seeds base f] is
    [[| f 0 r0; ...; f (seeds - 1) r(seeds - 1) |]] with
    [ri = Prng.Stream.replicate base i], computed through {!Exec.mapi}.
    All streams are derived before the fan-out; a cell that needs more
    streams derives them from [base] with indices of its own
    ([replicate] never advances [base]).  Raises [Invalid_argument] if
    [seeds < 1]. *)

val column_means : float list array -> float list
(** [column_means rows] is the mean of every column of [rows] (one row
    per seed, as {!cells} returns them): one {!Stats.Running.add} fold
    per column, in row order.  Raises [Invalid_argument] on no rows, on
    rows of different lengths or on a non-finite value. *)

val summarize : Prng.Xoshiro.t -> float array -> sample
(** [summarize rng ratios] wraps raw samples with mean and CI. *)

val vs_construction :
  seeds:int -> base_seed:int -> name:string ->
  Mobile_server.Config.t -> Mobile_server.Algorithm.t ->
  (Prng.Xoshiro.t -> Adversary.Construction.t) -> sample
(** [vs_construction ~seeds ~base_seed ~name config alg gen] draws
    [seeds] constructions from independent streams derived from
    [(name, base_seed)] and samples
    [cost(alg) / cost(adversary trajectory)]. *)

val vs_opt :
  ?max_iter:int -> seeds:int -> base_seed:int -> name:string ->
  Mobile_server.Config.t -> Mobile_server.Algorithm.t ->
  (Prng.Xoshiro.t -> Mobile_server.Instance.t) -> sample
(** Ratio against {!Offline.Opt_cache.optimum}: the exact 1-D optimum of
    {!Offline.Line_dp} on the line, the {!Offline.Convex_opt} optimum
    (with [max_iter]) in any other dimension. *)

val vs_construction_tight :
  ?max_iter:int -> seeds:int -> base_seed:int -> name:string ->
  Mobile_server.Config.t -> Mobile_server.Algorithm.t ->
  (Prng.Xoshiro.t -> Adversary.Construction.t) -> sample
(** Like {!vs_construction}, but the denominator is the {e tighter} of
    the adversary's trajectory cost and the convex-solver optimum —
    both upper-bound OPT, so taking the minimum only sharpens the
    estimate. *)

val cost_pair :
  ?rng:Prng.Xoshiro.t -> Mobile_server.Config.t ->
  Mobile_server.Algorithm.t -> Mobile_server.Instance.Packed.t ->
  opt:float -> float
(** [cost_pair config alg packed ~opt] is [cost(alg on packed) / opt],
    the online cost taken by {!Mobile_server.Engine.total_cost_packed}
    — the natural pairing with the {!Offline.Opt_cache} solver entry
    points, which take the same packed instance.  Raises
    [Invalid_argument] when [opt <= 0]. *)
