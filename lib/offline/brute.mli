(** Brute-force offline optima for tiny instances — the ground truth the
    smarter solvers are tested against.

    Two exhaustive solvers:

    - {!grid_1d}: value iteration over a dense uniform grid in 1-D with
      a full [O(G²)] transition scan per round (no sliding-window
      cleverness) — deliberately written as the most obviously correct
      implementation, to validate {!Line_dp}.
    - {!grid_2d}: the same over a dense 2-D lattice; exponential in
      nothing but brutally quadratic in the lattice size, so keep
      [cells_per_axis] small ([<= 41]) and [T] short.  Validates
      {!Convex_opt} in the plane. *)

val grid_1d :
  cells:int -> Mobile_server.Config.t -> Mobile_server.Instance.t -> float
(** [grid_1d ~cells config inst] is the optimal cost of a 1-D instance
    over a uniform grid of [cells] points spanning the hull of start and
    requests.  Raises [Invalid_argument] if the instance is not 1-D,
    empty, or [cells < 2]. *)

val grid_2d :
  cells_per_axis:int -> Mobile_server.Config.t -> Mobile_server.Instance.t ->
  float
(** [grid_2d ~cells_per_axis config inst] is the optimal cost of a 2-D
    instance over a [cells_per_axis²] lattice spanning the bounding box
    of start and requests (expanded so the start is a lattice point).
    Cost is [O(T · cells⁴)]; intended for [cells_per_axis <= 41] and
    [T <= 8] in tests. *)
