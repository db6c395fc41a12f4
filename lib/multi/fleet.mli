(** The multi-server extension: cost model for a fleet of [k] mobile
    servers.

    The paper's conclusion asks whether its limited-movement idea
    transfers to the k-Server Problem ("effectively turning it into the
    Page Migration Problem with multiple pages").  This library realizes
    that: [k] servers each move at most [m] per round (the online fleet
    gets [(1+δ)m] each), every request is then served by the {e nearest}
    server, and movement is charged [D] per unit for every server.

    Costs for one round, fleet moving from [ps] to [ps']:

    - Move-first:  [D·Σ_i d(ps_i, ps'_i) + Σ_req min_i d(ps'_i, req)]
    - Serve-first: [Σ_req min_i d(ps_i, req) + D·Σ_i d(ps_i, ps'_i)]

    With [k = 1] this coincides exactly with the single-server model,
    which the test suite checks against {!Mobile_server.Cost}.  Every
    distance is a {!Geometry.Vec.dist} on the boxed fleets;
    [test/golden/fleet_v1.txt] pins the resulting bits. *)

val service_cost : Geometry.Vec.t array -> Geometry.Vec.t array -> float
(** [service_cost fleet requests] is [Σ_req min_i d(fleet_i, req)]:
    requests in order, each served by its nearest server (strict [<],
    lowest index on ties).  The fleet must be non-empty. *)

val step :
  Mobile_server.Config.t -> from:Geometry.Vec.t array ->
  to_:Geometry.Vec.t array -> Geometry.Vec.t array ->
  Mobile_server.Cost.breakdown
(** One round's cost under the config's variant.  Fleets must have equal
    positive length and uniform dimension. *)

val clamp :
  limit:float -> from:Geometry.Vec.t array -> Geometry.Vec.t array ->
  Geometry.Vec.t array
(** [clamp ~limit ~from target] moves each server [i] from [from.(i)]
    toward [target.(i)] by at most [limit] ({!Geometry.Vec.clamp_step}):
    the per-server budget every online fleet algorithm obeys.  [target]
    must not have more servers than [from]. *)

val feasible :
  limit:float -> start:Geometry.Vec.t array -> Geometry.Vec.t array array ->
  bool
(** [feasible ~limit ~start fleets] checks every server's per-round move
    against [limit], within {!Mobile_server.Config.budget_slack};
    [fleets.(t)] is the fleet after round [t].  A move whose length is
    not finite (a NaN or infinite coordinate) is infeasible.  Raises
    [Invalid_argument] if some round's fleet has a different number of
    servers than [start]. *)

val spread_start : k:int -> Geometry.Vec.t -> Geometry.Vec.t array
(** [spread_start ~k p] is the canonical initial fleet: all [k] servers
    colocated at [p] (the model starts every server at the origin, as in
    the single-server problem). *)
