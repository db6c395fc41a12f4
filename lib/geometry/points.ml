(* Struct-of-arrays point storage: one flat float64 buffer instead of
   an array of boxed coordinate arrays.  The buffer is an [Fbuf.t]
   (Bigarray, c_layout), so multi-MB instances sit outside the OCaml
   heap; the reduction kernels reproduce the arithmetic of their [Vec]
   counterparts bit for bit (see the notes on each), so callers can
   switch representations without perturbing a single rounding step. *)

[@@@no_boxed_floats]

type t = { dim : int; data : Fbuf.t }

let create ~dim count =
  if dim <= 0 then invalid_arg "Points.create: dimension must be positive";
  if count < 0 then invalid_arg "Points.create: negative count";
  { dim; data = Fbuf.create (count * dim) }

let raw t = t.data

let check_index name t i =
  if i < 0 || (i + 1) * t.dim > Fbuf.length t.data then
    invalid_arg (Printf.sprintf "Points.%s: index %d out of bounds" name i)

let coord t i c = Fbuf.get t.data ((i * t.dim) + c)

let set t i (v : Vec.t) =
  check_index "set" t i;
  if Array.length v <> t.dim then
    invalid_arg "Points.set: dimension mismatch";
  Fbuf.blit_from_array v 0 t.data (i * t.dim) t.dim

let get_into t i (dst : Vec.t) =
  check_index "get_into" t i;
  if Array.length dst <> t.dim then
    invalid_arg "Points.get_into: dimension mismatch";
  Fbuf.blit_to_array t.data (i * t.dim) dst 0 t.dim

(* Distance from point [i] to [v], with exactly the arithmetic of
   [Vec.dist v] to a boxed copy of point [i]: a max-|·| scaling pass then a scaled
   sum-of-squares pass.  The subtraction direction is immaterial —
   IEEE negation is exact, and only |d| and d² enter the result.  The
   max is [Vec.norm]'s [Float.max]-free form; inlined, so [sum_dist]
   boxes nothing per point. *)
let[@inline] dist t i (v : Vec.t) =
  let d = t.dim in
  if Array.length v <> d then invalid_arg "Points.dist: dimension mismatch";
  let base = i * d in
  let data = t.data in
  let m = ref 0.0 in
  for c = 0 to d - 1 do
    let a = Float.abs (v.(c) -. Fbuf.get data (base + c)) in
    if a > !m || Float.is_nan a then m := a
  done;
  let m = !m in
  if Float.equal m 0.0 then 0.0
  else if Float.equal m infinity then infinity
  else begin
    let acc = ref 0.0 in
    for c = 0 to d - 1 do
      let x = (v.(c) -. Fbuf.get data (base + c)) /. m in
      acc := !acc +. (x *. x)
    done;
    m *. sqrt !acc
  end

(* Left fold in index order, matching [Cost.service_cost]'s
   [Array.fold_left] over the boxed request array. *)
let sum_dist t ~lo ~hi (v : Vec.t) =
  let acc = ref 0.0 in
  for i = lo to hi - 1 do
    acc := !acc +. dist t i v
  done;
  !acc

(* Accumulate-then-scale in the order of [Vec.centroid]: start from a
   copy of the first point, add the rest coordinate-wise, then multiply
   by 1/n in place. *)
let centroid_into t ~lo ~hi (dst : Vec.t) =
  let n = hi - lo in
  if n <= 0 then invalid_arg "Points.centroid_into: empty range";
  if Array.length dst <> t.dim then
    invalid_arg "Points.centroid_into: dimension mismatch";
  let d = t.dim in
  let data = t.data in
  Fbuf.blit_to_array data (lo * d) dst 0 d;
  for i = lo + 1 to hi - 1 do
    let base = i * d in
    for c = 0 to d - 1 do
      dst.(c) <- dst.(c) +. Fbuf.get data (base + c)
    done
  done;
  let k = 1.0 /. float_of_int n in
  for c = 0 to d - 1 do
    dst.(c) <- k *. dst.(c)
  done
