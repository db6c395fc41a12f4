module Heap = Geometry.Heap

(* The per-source core: runs over the graph's CSR rows, reusing the
   caller's heap and filling the caller's [dist] row — the scratch a
   multi-source sweep hoists out of its loop. *)
let run_into g heap dist s =
  let offsets, targets, lengths = Graph.csr g in
  Array.fill dist 0 (Array.length dist) infinity;
  dist.(s) <- 0.0;
  Heap.clear heap;
  Heap.push heap dist s;
  (* Unsafe accesses: [u] and [v] are node ids below [n] (the CSR
     invariant), [k] ranges inside [offsets.(u) .. offsets.(u+1) - 1]
     which indexes [targets]/[lengths] by construction, and the heap
     root exists whenever [size > 0]. *)
  while heap.Heap.size > 0 do
    let d = Array.unsafe_get heap.Heap.dists 0
    and u = Array.unsafe_get heap.Heap.nodes 0 in
    Heap.remove_top heap;
    if d <= Array.unsafe_get dist u then begin
      let stop = Array.unsafe_get offsets (u + 1) - 1 in
      for k = Array.unsafe_get offsets u to stop do
        let v = Array.unsafe_get targets k in
        let nd = d +. Array.unsafe_get lengths k in
        if nd < Array.unsafe_get dist v then begin
          Array.unsafe_set dist v nd;
          Heap.push heap dist v
        end
      done
    end
  done

(* A metric is the densified closure: one flat row-major n² Bigarray
   ({!Geometry.Fbuf.t}, outside the OCaml heap), row [u] at offset
   [u·n].  The table is never mutated after construction, so a borrowed
   row stays valid for the metric's lifetime. *)
type metric = { n : int; flat : Geometry.Fbuf.t }

let size m = m.n

(* Sources are swept in fixed blocks; each block owns one heap and one
   row buffer and writes its rows into disjoint slices of [flat], so
   the result is the same flat array at any jobs count. *)
let block_size = 16

let all_pairs g =
  if not (Graph.is_connected g) then
    invalid_arg "Dijkstra.all_pairs: graph is not connected";
  let n = Graph.nodes g in
  let flat = Geometry.Fbuf.create (n * n) in
  let blocks = (n + block_size - 1) / block_size in
  let compute_block b =
    let heap = Heap.create n in
    let row = Array.make n infinity in
    let lo = b * block_size in
    let hi = Stdlib.min n (lo + block_size) - 1 in
    for s = lo to hi do
      run_into g heap row s;
      Geometry.Fbuf.blit_from_array row 0 flat (s * n) n
    done
  in
  ignore (Exec.map compute_block (Array.init blocks Fun.id));
  { n; flat }

let row m u =
  if u < 0 || u >= m.n then invalid_arg "Dijkstra.row: node out of range";
  (m.flat, u * m.n)

let distance m u v =
  let n = m.n in
  if u < 0 || u >= n || v < 0 || v >= n then
    invalid_arg "Dijkstra.distance: node out of range";
  Geometry.Fbuf.get m.flat ((u * n) + v)

let dense_table m = m.flat

let diameter m =
  let best = ref 0.0 in
  for i = 0 to Geometry.Fbuf.length m.flat - 1 do
    let d = Geometry.Fbuf.get m.flat i in
    if d > !best then best := d
  done;
  !best

let nearest m u candidates =
  match candidates with
  | [] -> invalid_arg "Dijkstra.nearest: no candidates"
  | first :: rest ->
    List.fold_left
      (fun best c -> if distance m u c < distance m u best then c else best)
      first rest
