(* Binary min-heap, unboxed: distances and node ids live in two
   parallel flat arrays, so pushes and sifts move scalars instead of
   allocating (float, int) tuples.  The comparison structure is
   identical to the historical tuple heap (strict [<] on distances),
   so pop order — and therefore every relaxation — is unchanged. *)
module Heap = struct
  type t = {
    mutable dists : float array;
    mutable nodes : int array;
    mutable size : int;
  }

  let create capacity =
    let capacity = Stdlib.max 1 capacity in
    { dists = Array.make capacity 0.0; nodes = Array.make capacity 0; size = 0 }

  let clear h = h.size <- 0

  (* Hole-based sifts: the moving element is carried in registers and
     written once at its final slot, halving the stores a swap-based
     sift would issue.  Every slot a sift touches satisfies
     [i < size <= Array.length dists], so the unsafe accesses are in
     bounds; the comparisons are the same strict [<] on the same
     values, so the final heap shape is unchanged. *)
  let sift_up h i0 =
    let dists = h.dists and nodes = h.nodes in
    let d = Array.unsafe_get dists i0 and v = Array.unsafe_get nodes i0 in
    let i = ref i0 in
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      if d < Array.unsafe_get dists parent then begin
        Array.unsafe_set dists !i (Array.unsafe_get dists parent);
        Array.unsafe_set nodes !i (Array.unsafe_get nodes parent);
        i := parent
      end
      else continue := false
    done;
    Array.unsafe_set dists !i d;
    Array.unsafe_set nodes !i v

  let sift_down h i0 =
    let dists = h.dists and nodes = h.nodes in
    let size = h.size in
    let d = Array.unsafe_get dists i0 and v = Array.unsafe_get nodes i0 in
    let i = ref i0 in
    let continue = ref true in
    while !continue do
      let left = (2 * !i) + 1 and right = (2 * !i) + 2 in
      let smallest = ref !i in
      let best = ref d in
      if left < size && Array.unsafe_get dists left < !best then begin
        smallest := left;
        best := Array.unsafe_get dists left
      end;
      if right < size && Array.unsafe_get dists right < !best then
        smallest := right;
      if !smallest <> !i then begin
        let j = !smallest in
        Array.unsafe_set dists !i (Array.unsafe_get dists j);
        Array.unsafe_set nodes !i (Array.unsafe_get nodes j);
        i := j
      end
      else continue := false
    done;
    Array.unsafe_set dists !i d;
    Array.unsafe_set nodes !i v

  let push h dist node =
    if h.size = Array.length h.dists then begin
      let grown_d = Array.make (2 * h.size) 0.0 in
      let grown_n = Array.make (2 * h.size) 0 in
      Array.blit h.dists 0 grown_d 0 h.size;
      Array.blit h.nodes 0 grown_n 0 h.size;
      h.dists <- grown_d;
      h.nodes <- grown_n
    end;
    Array.unsafe_set h.dists h.size dist;
    Array.unsafe_set h.nodes h.size node;
    h.size <- h.size + 1;
    sift_up h (h.size - 1)

  (* Callers read [dists.(0)]/[nodes.(0)] then [remove_top]: popping
     never materializes a pair. *)
  let remove_top h =
    h.size <- h.size - 1;
    if h.size > 0 then begin
      Array.unsafe_set h.dists 0 (Array.unsafe_get h.dists h.size);
      Array.unsafe_set h.nodes 0 (Array.unsafe_get h.nodes h.size);
      sift_down h 0
    end
end

(* The per-source core: runs over the graph's CSR rows, reusing the
   caller's heap and filling the caller's [dist] row — the scratch a
   multi-source sweep hoists out of its loop. *)
let run_into g heap dist s =
  let offsets, targets, lengths = Graph.csr g in
  Array.fill dist 0 (Array.length dist) infinity;
  dist.(s) <- 0.0;
  Heap.clear heap;
  Heap.push heap 0.0 s;
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
          Heap.push heap nd v
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
