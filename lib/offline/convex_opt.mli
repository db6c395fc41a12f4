(** Offline optimum in arbitrary dimension, by convex optimization.

    The offline Mobile Server Problem is convex in the stacked
    trajectory [x = (P_1, ..., P_T)]: the objective is a sum of
    Euclidean norms and the per-round constraints
    [‖P_t − P_{t−1}‖ <= m] are convex.  This module minimizes it with

    + a {b projected subgradient} phase — Polyak-style diminishing
      steps, feasibility restored after every step by a forward pass
      that clamps each move to the budget, best feasible iterate kept;
    + a {b coordinate-descent polish} — each [P_t] in turn is re-solved
      as a constrained Fermat–Weber problem (anchors [P_{t−1}],
      [P_{t+1}] with weight [D], the round's requests with weight 1) by
      damped Weiszfeld iterations followed by projection onto the
      intersection of the two movement balls; updates are accepted only
      when the total cost decreases, so the pass is monotone.  A round
      whose last visit was rejected is skipped until a neighbour moves:
      its next visit would read the same inputs and be rejected again.

    On 1-D instances the result is cross-checked in the test suite
    against the exact {!Line_dp} solver; on tiny instances against
    {!Brute}.  The returned cost is always achieved by the returned
    {e feasible} trajectory, hence is a true upper bound on OPT. *)

type solution = {
  cost : float;  (** Cost of [positions] — an upper bound on OPT. *)
  positions : Geometry.Vec.t array;  (** Feasible trajectory, length [T]. *)
  subgradient_iterations : int;  (** Iterations spent in phase 1. *)
  descent_sweeps : int;  (** Accepted coordinate-descent sweeps. *)
}

val solve :
  ?max_iter:int -> ?sweeps:int -> Mobile_server.Config.t ->
  Mobile_server.Instance.t -> solution
(** [solve config inst] optimizes the offline trajectory for [inst]
    under budget [Config.offline_limit config].  [max_iter] bounds the
    subgradient phase (default 400); [sweeps] bounds coordinate-descent
    sweeps (default 30, stopping early when a sweep improves the cost by
    less than a 1e-9 relative amount).

    Raises [Invalid_argument] on an empty instance, and, with
    {!Line_dp}'s wording, when a coordinate of the start position
    (["Convex_opt.solve: start position is not finite"]) or of a
    request (["Convex_opt.solve: request coordinate is not finite (NaN
    or infinite)"]) is NaN or infinite.  Finite coordinates whose
    distances overflow (say ±1e308) are accepted: the cost is then
    [infinity], a valid but useless upper bound, unless a clamped step's
    own length overflows (a start at −1e308 and a request at 1e308),
    which raises [Invalid_argument "Convex_opt.solve: non-finite
    gap"]. *)

val optimum :
  ?max_iter:int -> ?sweeps:int -> Mobile_server.Config.t ->
  Mobile_server.Instance.t -> float
(** The cost field of {!solve}. *)

val solve_packed :
  ?max_iter:int -> ?sweeps:int -> Mobile_server.Config.t ->
  Mobile_server.Instance.Packed.t -> solution
(** [solve_packed config p] is the solver: the warm start, the
    subgradient phase (in-place gradient accumulation), the coordinate
    sweeps, the block translation and the trajectory pricing all read
    each round's charged requests from the flat request buffer.  The
    phases' loops run over scratch vectors and allocate nothing; what a
    solve allocates is its scratch, a few trajectory copies and the
    floats {!Mobile_server.Cost.trajectory} boxes.
    {!solve} is [solve_packed] after {!Mobile_server.Instance.pack}, so
    the two are bit-identical by construction. *)

val optimum_packed :
  ?max_iter:int -> ?sweeps:int -> Mobile_server.Config.t ->
  Mobile_server.Instance.Packed.t -> float
(** The cost field of {!solve_packed}. *)
