(** Move-to-Center — the paper's algorithm (Section 4).

    Each round, with the server at [P] and requests [v_1 .. v_r]:

    + let [c] be the point minimizing [Σ_i d(c, v_i)] (ties broken
      towards [P]) — the geometric median;
    + move towards [c] by [min {1, r/D} · d(P, c)], clipped at the
      online budget [(1+δ)·m].

    Rounds with no requests leave the server in place.  For a single
    request ([r = 1]) this specializes to the Moving Client rule of
    Theorem 10: move [min(m_s, d(P, A)/D)] towards the agent.

    Theorem 4: with augmentation [(1+δ)m], MtC is
    [O((1/δ)·Rmax/Rmin)]-competitive on the line and
    [O((1/δ^{3/2})·Rmax/Rmin)]-competitive in the Euclidean plane. *)

val algorithm : Algorithm.t
(** The deterministic MtC algorithm exactly as in the paper:
    [with_center ~name:"mtc" center]. *)

val target : Config.t -> server:Geometry.Vec.t -> Geometry.Vec.t array ->
  Geometry.Vec.t
(** [target config ~server requests] is the {e unclipped} destination of
    the MtC rule for one round (before the [(1+δ)m] clamp): the point at
    distance [min {1, r/D}·d(server, c)] from [server] towards [c].
    Returns [server] for an empty round.  Exposed for tests and for the
    potential-function checker. *)

val center : server:Geometry.Vec.t -> Geometry.Vec.t array -> Geometry.Vec.t
(** The center point [c] used by the rule (re-export of
    {!Geometry.Median.center}); returns [server] for an empty round. *)

val with_center :
  name:string ->
  (server:Geometry.Vec.t -> Geometry.Vec.t array -> Geometry.Vec.t) ->
  Algorithm.t
(** [with_center ~name center] is the MtC rule with a custom center
    function — used by the ablation that replaces the geometric median
    by the centroid (DESIGN.md §5). *)

val mean_variant : Algorithm.t
(** MtC with the centroid instead of the geometric median
    ("mtc-mean"). *)
