(** Binary min-heap on (float key, int node), unboxed.

    Keys and node ids live in two parallel flat arrays, so a push or a
    pop moves scalars instead of allocating [(float, int)] tuples.
    Both shortest-path solvers run on it: [Network.Dijkstra]'s
    per-source sweep and [Multi.Fleet_flow]'s successive shortest
    paths.

    {b Order.}  Sifts compare keys with strict [<] only, in a fixed
    order, so the pop order, ties included, is a pure function of the
    push/pop sequence.  Both solvers' goldens (network_v1.txt,
    fleet_flow_v1.txt) and test_geometry's heap property pin it.

    {b Popping} reads the root in place, [h.dists.(0)] and
    [h.nodes.(0)] while [h.size > 0], then calls {!remove_top}; no
    pair is ever built.  The record is [private]: read it, never
    write it. *)

type t = private {
  mutable dists : float array;
  mutable nodes : int array;
  mutable size : int;
}
(** Slots [0 .. size - 1] of [dists]/[nodes] hold the heap. *)

val create : int -> t
(** [create capacity] is an empty heap with room for [max 1 capacity]
    entries; {!push} doubles the arrays when they fill. *)

val clear : t -> unit
(** Empties the heap, keeping its arrays. *)

val push : t -> float array -> int -> unit
(** [push h keys node] inserts [node] under [keys.(node)], the value
    at the time of the push.  The key comes in an array (both solvers
    pass their distance array) because without flambda a float
    argument to another module's function is boxed on every call. *)

val remove_top : t -> unit
(** Drops the root.  The heap must be non-empty. *)
