(** Exact offline optimum on the line, by dynamic programming.

    In 1-D the offline Mobile Server Problem

    [min Σ_t ( D·|P_t − P_{t−1}| + Σ_i |P_t − v_{t,i}| )
     s.t. |P_t − P_{t−1}| <= m]

    is solved over a uniform position grid anchored at the start: the
    start is a grid point, request coordinates in general are not.  The
    pitch is [m / min grid_per_m 126], widened when needed to keep the
    grid within a fixed memory budget.  The value iteration

    [V_t(x) = service_t(x) + min over y with |y−x| <= m of
      ( D·|x−y| + V_(t−1)(y) )]

    splits into a left window minimum of [V_{t−1}(y) − D·y] over
    [y in [x − m, x]] and a right one of [V_{t−1}(y) + D·y] over
    [y in [x, x + m]], each a monotone-deque scan, so a round costs
    [O(G)] instead of [O(G²)].  A round is two passes: left to right
    for the left minima, then right to left for the right minima, which
    combines each grid point as soon as its right minimum is known and
    writes [V_t] in place.  A tie within a window goes to the [y]
    nearest [x], a tie between the windows to the left one, and the
    terminal state is the leftmost minimum.  Both cost variants are
    supported (Serve-first charges [service_t] at [y] instead of [x],
    which just moves the term inside the window).

    Optimal server positions never leave the convex hull of the request
    coordinates and the start (moving outside only adds cost), so the
    grid covers that interval, rounded out to whole pitches, and the
    result is exact up to the grid resolution: the returned cost
    overestimates the continuous optimum by at most [T·(D + R)·h] where
    [h] is the grid pitch. *)

type solution = {
  cost : float;  (** Total optimal cost on the grid. *)
  positions : Geometry.Vec.t array;  (** An optimal trajectory (1-D points). *)
  grid_pitch : float;  (** Grid resolution actually used. *)
}

val solve : ?grid_per_m:int -> Mobile_server.Config.t ->
  Mobile_server.Instance.t -> solution
(** [solve config inst] computes the offline optimum of a 1-D instance.
    [grid_per_m] (default 64) sets the refinement: the pitch is at most
    [m / grid_per_m].  Raises [Invalid_argument] if [Instance.dim inst
    <> 1], the instance is empty, or the arena is so wide relative to
    the memory-bounded grid budget that the pitch exceeds the movement
    limit [m] (a window of zero grid steps — no feasible discretized
    move exists, and silently widening it would return an infeasible
    trajectory).

    The movement budget used is [Config.offline_limit] — the optimum is
    never augmented. *)

val optimum : ?grid_per_m:int -> Mobile_server.Config.t ->
  Mobile_server.Instance.t -> float
(** [optimum config inst] is [(solve config inst).cost]. *)

val solve_packed : ?grid_per_m:int -> Mobile_server.Config.t ->
  Mobile_server.Instance.Packed.t -> solution
(** [solve_packed config p] is the packed-instance core — {!solve} is
    [solve_packed] after {!Mobile_server.Instance.pack}, so the two are
    bit-identical by construction.  The DP iterates the flat request
    buffer and reuses solver-level scratch across all [T] rounds (no
    per-round allocation). *)

val optimum_packed : ?grid_per_m:int -> Mobile_server.Config.t ->
  Mobile_server.Instance.Packed.t -> float
(** The cost field of {!solve_packed}. *)
