(** Points and vectors in n-dimensional Euclidean space.

    A vector is a plain [float array]; all operations are dimension
    checked and allocate fresh arrays (no aliasing surprises).  The
    Mobile Server Problem is stated for arbitrary dimension, so nothing
    here is specialized to the plane — 1-D and 2-D helpers exist only as
    conveniences for the experiments. *)

type t = float array
(** A point/vector; the array is its coordinates. *)

val dim : t -> int
(** [dim v] is the number of coordinates. *)

val zero : int -> t
(** [zero d] is the origin of [R^d]. *)

val make1 : float -> t
(** [make1 x] is the 1-D point [x]. *)

val make2 : float -> float -> t
(** [make2 x y] is the 2-D point [(x, y)]. *)

val x : t -> float
(** [x v] is the first coordinate.  [v] must be non-empty. *)

val y : t -> float
(** [y v] is the second coordinate.  [dim v >= 2] required. *)

val copy : t -> t
(** [copy v] is a fresh array with [v]'s coordinates. *)

val equal : ?eps:float -> t -> t -> bool
(** [equal ?eps u v] tests coordinate-wise equality within absolute
    tolerance [eps] (default [1e-9]).  Vectors of different dimension
    are unequal. *)

val add : t -> t -> t
(** Componentwise sum.  Raises [Invalid_argument] on dimension
    mismatch. *)

val sub : t -> t -> t
(** Componentwise difference. *)

val scale : float -> t -> t
(** [scale k v] multiplies every coordinate by [k]. *)

(** {2 Allocation-free kernels}

    The [_into] family writes the result into a caller-owned buffer
    instead of allocating — the engine's hot path (Weiszfeld iterations,
    per-round cost accounting) reuses a handful of scratch buffers
    across rounds; see [docs/perf.md] for the buffer-reuse rules.
    Coordinate [i] of the destination depends only on coordinate [i] of
    the sources, so the destination may alias a source.  All raise
    [Invalid_argument] on dimension mismatch. *)

val scale_into : t -> float -> t -> unit
(** [scale_into dst k v] stores [scale k v] in [dst]. *)

val lerp_into : t -> t -> t -> float -> unit
(** [lerp_into dst a b s] stores [lerp a b s] in [dst]. *)

val dot : t -> t -> float
(** Euclidean inner product. *)

val norm : t -> float
(** Euclidean norm, computed with scaling to avoid overflow. *)

val norm2 : t -> float
(** Squared Euclidean norm. *)

val dist : t -> t -> float
(** [dist u v] is the Euclidean distance — bit-identical to
    [norm (sub u v)] (same overflow-safe scaling, same summation
    order), but computed without materialising the difference
    vector.  A call from another module still returns its result
    boxed (nothing inlines across modules in dune's dev profile);
    per-point loops use {!sum_dist} or a local copy. *)

val dist2 : t -> t -> float
(** Squared Euclidean distance, allocation-free; bit-identical to
    [norm2 (sub u v)]. *)

val sum_dist : t -> t array -> float
(** [sum_dist p vs] is [Σ_i dist p vs.(i)], summed left to right from
    [0.] — bit-identical to that [Array.fold_left], with no per-point
    boxing.  Raises [Invalid_argument] on dimension mismatch. *)

val normalize : t -> t option
(** [normalize v] is the unit vector in [v]'s direction, or [None] if
    [v] is (numerically) zero. *)

val lerp : t -> t -> float -> t
(** [lerp a b s] is the point [a + s·(b − a)]; [s = 0] gives [a],
    [s = 1] gives [b]. *)

val move_towards : t -> t -> float -> t
(** [move_towards p target d] moves [p] distance [min d (dist p target)]
    along the straight line towards [target] — the only motion primitive
    the Move-to-Center algorithm needs.  [d] must be non-negative.
    Raises [Invalid_argument] when [dist p target] is not finite (NaN
    coordinates in [p] or [target]); it used to return a NaN vector
    silently. *)

val move_towards_gap : t -> t -> gap:float -> float -> t
(** [move_towards_gap p target ~gap d] is [move_towards p target d] for a
    caller that has already measured [gap = dist p target] — the same
    decision and lerp arithmetic, without measuring the distance twice.
    Raises [Invalid_argument] as {!move_towards} does (negative [d],
    non-finite [gap]) and on dimension mismatch. *)

val clamp_step : from:t -> float -> t -> t
(** [clamp_step ~from limit target] is [target] if
    [dist from target <= limit], otherwise the point at distance exactly
    [limit] from [from] on the segment towards [target].  This enforces
    the model's maximum movement distance [m]. *)

val clamp_step_into : t -> from:t -> float -> t -> unit
(** [clamp_step_into dst ~from limit target] stores
    [clamp_step ~from limit target] in [dst] without allocating —
    bit-identical decision and lerp arithmetic.  [dst] may alias
    [target].  Raises [Invalid_argument] if [limit < 0] or the gap is
    not finite. *)

val centroid : t array -> t
(** [centroid ps] is the arithmetic mean of a non-empty array of
    points. *)

val pp : Format.formatter -> t -> unit
(** Prints as [(x1, x2, ...)] with 6 significant digits. *)

val to_string : t -> string
(** [to_string v] is [Format.asprintf "%a" pp v]. *)
