(** The bridge from graph Page Migration to the Mobile Server Problem.

    The paper abstracts the network away: "we replace the network graph
    with the Euclidean space" and cap the per-round movement.  This
    module makes the abstraction executable: a geometric graph carries a
    point layout, so a PM instance on it converts into a mobile-server
    {!Mobile_server.Instance} whose requests sit at the nodes'
    coordinates.  Experiment B1 uses it to show what the cap costs: the
    uncapped page teleports to a new hotspot in one round, the capped
    server pays the transit. *)

val to_mobile_instance :
  layout:Geometry.Vec.t array -> Pm_model.instance ->
  Mobile_server.Instance.t
(** [to_mobile_instance ~layout inst] maps every requesting node to its
    layout coordinates.  Raises [Invalid_argument] if a node has no
    layout entry. *)

val round_trip_gap :
  metric:Dijkstra.metric -> layout:Geometry.Vec.t array -> float
(** [round_trip_gap ~metric ~layout] is the largest relative gap
    between graph distance and Euclidean distance over all node pairs —
    a measure of how faithful the embedding is (0 for a complete
    geometric graph, larger when paths detour). *)
