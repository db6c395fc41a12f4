(** Exact offline optimum for graph Page Migration.

    Without a movement cap the offline problem is a shortest path in a
    layered graph over the nodes: value iteration

    [V_t(x) = Σ_req d(x, req_t) + min_y ( V_(t-1)(y) + D·d(y, x) )]

    costs [O(T·n²)] — exact, no discretization.  This is the ground
    truth for experiment B1's empirical competitive ratios.

    The DP runs on the metric's flat dense table: per-round service vectors are computed once, row
    bases are hoisted, and destination columns are minimized in
    parallel node blocks over the {!Exec} pool — bit-identical at any
    jobs count, and bit-identical to the historical per-pair
    implementation (test_network's "page-migration golden capture"
    holds this against [test/golden/network_v1.txt]). *)

type solution = {
  cost : float;
  positions : int array;  (** An optimal page trajectory. *)
}

val solve :
  Dijkstra.metric -> d_factor:float -> Pm_model.instance -> solution
(** [solve metric ~d_factor inst] computes the exact offline optimum.
    Raises [Invalid_argument] on an empty instance or [d_factor < 1]. *)

val optimum :
  Dijkstra.metric -> d_factor:float -> Pm_model.instance -> float
(** The cost field of {!solve}. *)

val optimum_cached :
  graph:Graph.t -> Dijkstra.metric -> d_factor:float ->
  Pm_model.instance -> float
(** {!optimum} memoized through {!Offline.Opt_cache} under solver id
    ["pm-dp:v1"], keyed by the graph's {!Graph.serialize} bytes, the
    IEEE bits of [d_factor], and the instance (start node + request
    rounds) — everything the DP observes, so a hit returns exactly the
    float the solve would have produced.  [graph] must be the graph
    [metric] was built from.  Ratio sweeps that regenerate the same
    (graph, instance, D) cells hit the warm cache across replicates,
    reruns and jobs counts. *)
