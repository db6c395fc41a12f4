(** Instance diagnostics — the numbers that predict which regime of the
    paper an input falls into.

    The theory's behaviour is governed by a handful of instance
    quantities: the request-count range [Rmin, Rmax] (Theorems 2 and
    4), the per-round drift of the request cloud relative to the
    movement limit (Theorems 8 vs 10), and the spatial spread (how much
    a fleet could save, X1).  This module computes them so users — and
    the CLI — can sanity-check a workload before trusting a ratio. *)

type t = {
  rounds : int;
  dim : int;
  total_requests : int;
  r_min : int;  (** Smallest per-round request count. *)
  r_max : int;  (** Largest per-round request count. *)
  empty_rounds : int;
  mean_drift : float;
      (** Mean distance between consecutive non-empty rounds' request
          centroids. *)
  max_drift : float;
      (** Largest such distance — the agent speed for a single-request
          instance. *)
  spread : float;
      (** Mean distance of requests from their round centroid (0 for
          single-request rounds). *)
  hull_radius : float;
      (** Radius of the bounding ball of all requests around the
          start. *)
}

val compute : Instance.t -> t
(** [compute inst] walks the instance once. *)

val regime : move_limit:float -> t -> string
(** [regime ~move_limit stats] is a one-line human classification:
    which theorem's regime the instance most resembles — e.g.
    ["moving-client, agent slower than the server (Theorem 10 regime)"]
    or ["drift exceeds the movement limit (Theorem 8 regime)"]. *)
