(** Geometric medians — the center point of the Move-to-Center algorithm.

    MtC needs, each round, the point [c] minimizing
    [sum_i d(c, v_i)] over the round's request positions [v_i]
    (the Fermat–Weber point / geometric median), with ties broken
    towards the server position.

    In 1-D the minimizers form the interval between the lower and upper
    medians, and the tie-break picks the interval point closest to the
    server.  In higher dimension the median is unique unless the points
    are collinear; we compute it with Weiszfeld's iteration using the
    Vardi–Zhang modification, which remains correct when an iterate
    lands exactly on an input point. *)

val cost : Vec.t -> Vec.t array -> float
(** [cost c points] is [sum_i dist c points.(i)] — the Fermat–Weber
    objective. *)

val median_1d : ?tie_break:float -> float array -> float
(** [median_1d ?tie_break xs] is a minimizer of [fun c -> sum |c - x_i|]
    over a non-empty array.  When the minimizer is an interval (even
    count), returns the interval point closest to [tie_break]
    (default [0.]). *)

val weiszfeld :
  ?eps:float -> ?max_iter:int -> ?tie_break:Vec.t -> Vec.t array -> Vec.t
(** [weiszfeld points] is the geometric median of a non-empty array of
    points of equal dimension, to absolute step tolerance [eps]
    (default [1e-10], at most [max_iter] = 200 iterations), started
    from the centroid (a 2-approximation).  The 1-D, single-point and
    exactly-collinear branches are direct.

    Uses the Vardi–Zhang update: when the current iterate coincides with
    an input point of multiplicity [k], the pull of that point is
    replaced by the optimality test [‖R‖ <= k] (where [R] is the
    resultant of the other points) and the step is damped accordingly,
    so the iteration never divides by zero and still converges to the
    true median.

    [tie_break] only matters for 1-D inputs and for exactly collinear
    inputs with an even count, where the minimizer set can be a segment;
    the returned point is then the segment point closest to
    [tie_break].

    {b Kernels and the bitwise contract.}  The iteration is chosen by
    the points' dimension: for [d = 2] a two-coordinate kernel keeps
    the iterate, the weighted sum and the resultant in unboxed locals;
    for [d >= 3] a generic loop runs over scratch buffers.  Both
    perform, per coordinate, the operations of the original
    closure-form loop in its order, with [Vec.dist]'s arithmetic for
    every distance, so the result is bit-identical to it for every
    input and option (test_perf_equiv checks this against a
    verbatim copy).  Neither allocates per iteration or per point: a
    call allocates a constant number of words, apart from one boxed
    float per Vardi–Zhang anchor step when [d >= 3] (see
    docs/perf.md). *)

val center : server:Vec.t -> Vec.t array -> Vec.t
(** [center ~server requests] is the paper's center point [c]: the
    geometric median of [requests], ties broken toward [server].
    Requires a non-empty request array whose dimension matches
    [server].  Special cases: one request returns that request; two
    requests return the segment point closest to [server] (the whole
    segment is optimal). *)

val mean_center : server:Vec.t -> Vec.t array -> Vec.t
(** [mean_center ~server requests] is the centroid of the requests — a
    cheap 2-approximation of the median objective used by the ablation
    study (DESIGN.md §5).  [server] is ignored except for dimension
    checking; the argument shape matches {!center} so the two can be
    swapped. *)
