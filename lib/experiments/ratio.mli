(** Competitive-ratio measurement.

    Three ways to obtain the denominator (the optimal cost), in
    decreasing order of tightness:

    - {!vs_line_dp}: the exact 1-D optimum — the gold standard on the
      line;
    - {!vs_convex}: the convex-solver optimum in any dimension (a true
      upper bound on OPT, so the measured ratio is a {e lower} bound);
    - {!vs_construction}: the adversary's own trajectory from a
      lower-bound construction (also an upper bound on OPT — the exact
      comparator the paper's proofs use).

    All samplers average over independently seeded replicates; the
    replicate stream also seeds randomized algorithms. *)

type sample = {
  ratios : float array;  (** One competitive-ratio sample per seed. *)
  mean : float;
  ci_lo : float;  (** 95% bootstrap CI on the mean. *)
  ci_hi : float;
}

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

val vs_line_dp :
  ?grid_per_m:int -> seeds:int -> base_seed:int -> name:string ->
  Mobile_server.Config.t -> Mobile_server.Algorithm.t ->
  (Prng.Xoshiro.t -> Mobile_server.Instance.t) -> sample
(** Ratio against the exact 1-D optimum of {!Offline.Line_dp}. *)

val vs_convex :
  ?max_iter:int -> seeds:int -> base_seed:int -> name:string ->
  Mobile_server.Config.t -> Mobile_server.Algorithm.t ->
  (Prng.Xoshiro.t -> Mobile_server.Instance.t) -> sample
(** Ratio against the {!Offline.Convex_opt} optimum (any dimension). *)

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
