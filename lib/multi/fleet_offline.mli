(** Offline comparators for the fleet model.

    The exact offline fleet optimum couples [k] trajectories through a
    min-assignment and is not convex, so instead of one solver we use
    the tightest of several {e feasible offline strategies} — each a
    true upper bound on the fleet optimum, hence each gives a valid
    lower-bound estimate of an online algorithm's competitive ratio:

    - {!static_kmeans}: walk each server from the start to one of the
      k-means centers of the entire request history, then sit there;
    - {!single_server}: the exact single-server optimum with [k − 1]
      idle servers (more servers never hurt, so [OPT_k <= OPT_1]).

    {!best_upper} returns the cheaper of the two with a label, and
    {!optimum} is its cost alone.

    {b The exact relaxation optimum.}  {!optimum_flow} is different in
    kind: the {e exact} optimum of the serve-assignment relaxation (no
    budget, no service term — every request visited by a server at
    [D] per unit moved), computed by {!Fleet_flow} and memoized through
    {!Offline.Opt_cache} under solver id ["fleet-flow:v1"].  It is the
    k-server-style comparator the f1 experiment measures ratios
    against; it is neither an upper nor a lower bound of the budgeted
    fleet optimum (dropping the budget lowers cost, dropping the
    service term changes what cost means), so ratios against it are a
    documented proxy, not a competitive ratio in the paper's model. *)

val static_kmeans :
  k:int -> Mobile_server.Config.t -> Mobile_server.Instance.t ->
  Prng.Xoshiro.t -> float
(** Cost of the walk-then-park k-means fleet.  Raises on an empty
    instance or an instance with no requests at all. *)

val single_server :
  Mobile_server.Config.t -> Mobile_server.Instance.t -> float
(** The single-server optimum {!Offline.Opt_cache.optimum}: exact line
    DP in 1-D, the convex solver with its defaults otherwise, memoized.
    It does not depend on [k], so pricing one instance at several [k]
    solves it once (per cache lifetime). *)

val pick : km:float -> solo:float -> float * string
(** The comparator {!best_upper} applies to its two bounds: the
    cheaper of [km] ("static-kmeans") and [solo]
    ("single-server-opt"), with ties going to k-means.  Exposed so the
    tie-breaking is pinned by a regression test. *)

val best_upper :
  k:int -> Mobile_server.Config.t -> Mobile_server.Instance.t ->
  Prng.Xoshiro.t -> float * string
(** [(cost, label)] of the cheaper comparator; [label] is
    ["static-kmeans"] or ["single-server-opt"]. *)

val optimum :
  k:int -> Mobile_server.Config.t -> Mobile_server.Instance.t ->
  Prng.Xoshiro.t -> float
(** [fst (best_upper ...)].  {b This is an upper bound on the fleet
    optimum, not OPT}: both candidate strategies are feasible offline
    trajectories, so their minimum can only overestimate the true
    optimum.  Use {!optimum_flow} for an exact (relaxation-level)
    comparator. *)

val optimum_flow :
  k:int -> Mobile_server.Config.t -> Mobile_server.Instance.t -> float
(** Exact optimum of the serve-assignment relaxation, memoized through
    [Offline.Opt_cache.find_or_compute_keyed] (solver id
    ["fleet-flow:v1"]; the key covers [k], [d_factor]'s IEEE bits and
    the instance digest — budget and variant knobs are excluded
    because the relaxation cannot observe them).  A miss runs
    {!Fleet_flow.frontier} once and also stores the optima of every
    larger bound up to the unconstrained optimum's chain count, in
    memory only ([Offline.Opt_cache.add_keyed]), so pricing one
    instance at [k], [k + 1], ... solves it once.  Every value is
    [fst (Fleet_flow.solve ~k)] bit for bit. *)

val optimum_brute :
  k:int -> Mobile_server.Config.t -> Mobile_server.Instance.t -> float
(** The same relaxation optimum by exhaustive assignment enumeration
    ([k^n] states, pruned; raises [Invalid_argument] beyond ~2·10⁶
    states).  The argmin partition is re-priced through
    {!Fleet_flow.price_chains}, so on instances whose optimum
    partition is unique this equals {!optimum_flow} bit for bit — the
    differential gate `bench fleet` enforces. *)
