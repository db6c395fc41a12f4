(** Fleet strategies extending Move-to-Center to [k] servers.

    All three follow the same template — decompose the round's requests
    into [k] groups, then move each server with the single-server MtC
    rule ([min(1, r_i/D)·d] toward the group's geometric median, capped
    by the budget) — and differ only in the decomposition:

    - {!independent}: each request goes to its {e nearest server}; cheap
      and fully decentralized, but servers can starve (a server that
      never wins a request never moves).
    - {!greedy_partition}: nearest-server decomposition, but each server
      jumps at full speed to its group median (no [r/D] damping) — the
      fleet analogue of the Greedy baseline.
    - {!kmeans_tracker}: the round's requests are re-clustered with
      k-means each round and clusters are matched to the nearest
      servers, so the fleet redistributes itself across hotspots even
      from a colocated start.

    With [k = 1] {!independent} is exactly the paper's MtC (checked in
    the test suite). *)

val independent : Fleet_algorithm.t
(** "fleet-mtc" — nearest-server buckets + MtC rule per server. *)

val greedy_partition : Fleet_algorithm.t
(** "fleet-greedy" — nearest-server buckets + full-speed jumps. *)

val kmeans_tracker : Fleet_algorithm.t
(** "fleet-kmeans" — per-round k-means decomposition + MtC rule.
    Randomized (k-means++ seeding); pass [?rng] to the engine for
    reproducibility. *)
