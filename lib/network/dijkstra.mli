(** Shortest-path distances (Dijkstra with an unboxed binary heap).

    The Page Migration cost model charges graph distances for both
    requests and migrations, so the engine precomputes the metric
    closure once per graph: the whole closure in one flat row-major
    [n²] {!Geometry.Fbuf.t} (Bigarray float64, outside the OCaml heap
    so the GC never scans it), built by {!all_pairs} with the
    per-source sweeps fanned out over the {!Exec} pool.

    Row ownership (see docs/network.md): buffers handed out by {!row}
    and {!dense_table} are borrowed, read-only views owned by the
    metric.  They are never mutated after construction, so a borrowed
    row stays valid for as long as the metric is reachable. *)

type metric
(** Shortest-path distances of a connected graph. *)

val all_pairs : Graph.t -> metric
(** [all_pairs g] runs Dijkstra from every node into one flat
    row-major table, parallelized over the {!Exec} pool (the result is
    bit-identical at any jobs count).  Raises [Invalid_argument] if
    [g] is not connected (the PM model needs a total metric). *)

val distance : metric -> int -> int -> float
(** [distance m u v] is the shortest-path distance. *)

val row : metric -> int -> Geometry.Fbuf.t * int
[@@borrow]
(** [row m u] is [(buf, base)] with [Fbuf.get buf (base + v) =
    distance m u v]: a zero-copy view of row [u] in the flat table.
    Borrowed and read-only; hot loops fetch a row once and index it
    directly instead of calling {!distance} per pair. *)

val dense_table : metric -> Geometry.Fbuf.t
[@@borrow]
(** The flat row-major [n²] table ([u·n + v] is [distance m u v]).
    Borrowed and read-only. *)

val size : metric -> int
(** Number of nodes the metric covers. *)

val diameter : metric -> float
(** Largest pairwise distance. *)

val nearest : metric -> int -> int list -> int
(** [nearest m u candidates] is the candidate closest to [u] (first on
    ties).  Raises [Invalid_argument] on an empty candidate list. *)
