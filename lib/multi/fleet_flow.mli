(** Min-cost-max-flow optimum of the serve-assignment relaxation.

    The relaxation drops the movement budget and the nearest-server
    service term: every request must be visited by a server, movement
    costs [D] per unit, and a solution is a partition of the flattened
    request sequence (arrival order) into at most [k] time-increasing
    chains.  Its optimum is the classic k-server-style lower proxy the
    exemplar's [execute_opt_network] computes; see docs/fleet.md for
    the formulation, and {!Fleet_offline.optimum_flow} for the cached
    entry point. *)

val solve :
  d_factor:float -> start:Geometry.Vec.t ->
  requests:Geometry.Vec.t array -> k:int -> float * int array array
(** [solve ~d_factor ~start ~requests ~k] is [(cost, chains)]: the
    exact relaxation optimum and an optimal partition into at most [k]
    chains of request indices (each strictly increasing, sorted by
    first index).  The cost is re-priced through {!price_chains}, so
    any solver producing the same partition produces the same bits.
    Successive shortest paths with Johnson potentials on flat CSR
    arrays; O(n²) arcs, at most [n] Dijkstra passes.  Raises
    [Invalid_argument] if [k < 1], if [d_factor <= 0], if [d_factor],
    a coordinate of [start] or a request coordinate is not finite, or
    if [d_factor] times a start distance or a link cost
    [d(r_j, r_l) − d(start, r_l)] is not finite: finite coordinates
    can be too far apart, like [1e308] and [-1e308].
    {!Fleet_offline.optimum_brute} prices such an instance as
    [infinity] instead. *)

val frontier :
  d_factor:float -> start:Geometry.Vec.t ->
  requests:Geometry.Vec.t array -> k:int -> float array
(** [frontier ~d_factor ~start ~requests ~k] is the optimum at every
    bound from [k] up, from one run: entry [i] is
    [fst (solve ~k:(k + i))] bit for bit.  The last entry is the
    unconstrained optimum, which uses some [K] chains; it also holds
    for every larger bound, so the array has [max 1 (K - k + 1)]
    entries.  The successive shortest paths {!solve} runs are the same
    whatever the bound, which only decides where a run stops, so the
    run for [k] passes through the final state of every larger bound;
    it costs one [solve ~k] plus one {!price_chains} per answering
    state.  Raises like {!solve}. *)

val price_chains :
  d_factor:float -> start:Geometry.Vec.t ->
  requests:Geometry.Vec.t array -> int array array -> float
(** Canonical pricing of a chain partition: chains sorted by first
    request index, then [D·d(start, r_first) + Σ D·d(r_prev, r_next)]
    accumulated chain by chain, links in time order.  Validates that
    the chains partition [0..n-1] into strictly increasing sequences
    (raises [Invalid_argument] otherwise). *)
