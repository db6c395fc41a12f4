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
   bounds; the comparisons are the strict [<] a swap-based sift makes
   on the same values, so the heap shape and the pop order match it. *)
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

let push h keys node =
  if h.size = Array.length h.dists then begin
    let grown_d = Array.make (2 * h.size) 0.0 in
    let grown_n = Array.make (2 * h.size) 0 in
    Array.blit h.dists 0 grown_d 0 h.size;
    Array.blit h.nodes 0 grown_n 0 h.size;
    h.dists <- grown_d;
    h.nodes <- grown_n
  end;
  Array.unsafe_set h.dists h.size keys.(node);
  Array.unsafe_set h.nodes h.size node;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let remove_top h =
  h.size <- h.size - 1;
  if h.size > 0 then begin
    Array.unsafe_set h.dists 0 (Array.unsafe_get h.dists h.size);
    Array.unsafe_set h.nodes 0 (Array.unsafe_get h.nodes h.size);
    sift_down h 0
  end
