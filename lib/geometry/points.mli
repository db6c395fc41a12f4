(** Flat struct-of-arrays point storage.

    A [Points.t] holds [count] points of a fixed dimension in one
    contiguous {!Fbuf.t} (Bigarray float64, outside the OCaml heap) —
    point [i]'s coordinate [c] lives at index [i·dim + c].  Hot loops
    (offline solvers, the engine's per-round request view) iterate this
    buffer directly instead of chasing one boxed [float array] per
    point, and the GC never scans or moves the coordinates.

    {b Bit-identity contract.}  Every reduction kernel here reproduces
    the arithmetic of its boxed {!Vec} counterpart exactly — the same
    operations in the same order, hence the same IEEE rounding:

    - {!dist} ≡ [Vec.dist v p] for point [i] read into [p] by
      {!get_into} (overflow-safe two-pass form);
    - {!sum_dist} ≡ [Cost.service_cost]'s left fold over the slice;
    - {!centroid_into} ≡ [Vec.centroid] (copy-first, add, scale last).

    The differential suite (test_packed) checks these bit for bit. *)

type t

val create : dim:int -> int -> t
(** [create ~dim count] allocates storage for [count] points of
    dimension [dim], all zero.  Raises [Invalid_argument] if
    [dim <= 0] or [count < 0]. *)

val raw : t -> Fbuf.t
[@@borrow]
(** The backing buffer, of length [count · dim] — a {e borrow}, not a
    copy.  Callers may read it directly (the 1-D solvers do) but must
    never mutate it: the buffer is shared with every other accessor. *)

val coord : t -> int -> int -> float
(** [coord t i c] is coordinate [c] of point [i] (unchecked beyond the
    underlying array bounds). *)

val set : t -> int -> Vec.t -> unit
(** [set t i v] copies [v] into slot [i]. *)

val get_into : t -> int -> Vec.t -> unit
(** [get_into t i dst] copies point [i] into the caller-owned [dst]. *)

val dist : t -> int -> Vec.t -> float
(** [dist t i v] is the Euclidean distance from point [i] to [v],
    bit-identical to {!Vec.dist} from [v] to a boxed copy of point
    [i]. *)

val sum_dist : t -> lo:int -> hi:int -> Vec.t -> float
(** [sum_dist t ~lo ~hi v] is [Σ_{i ∈ [lo, hi)} dist t i v], summed in
    index order — bit-identical to [Cost.service_cost v] over the boxed
    slice. *)

val centroid_into : t -> lo:int -> hi:int -> Vec.t -> unit
(** [centroid_into t ~lo ~hi dst] writes the centroid of points
    [lo..hi-1] into [dst], bit-identical to [Vec.centroid] on the boxed
    slice.  Raises [Invalid_argument] on an empty range. *)
