[@@@no_boxed_floats]

type t = float array

let dim = Array.length

let zero d =
  if d <= 0 then invalid_arg "Vec.zero: dimension must be positive";
  Array.make d 0.0

let make1 x = [| x |]

let make2 x y = [| x; y |]

let x v =
  if Array.length v = 0 then invalid_arg "Vec.x: empty vector";
  v.(0)

let y v =
  if Array.length v < 2 then invalid_arg "Vec.y: dimension < 2";
  v.(1)

let copy = Array.copy

let check_dim name u v =
  if Array.length u <> Array.length v then
    invalid_arg (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)"
                   name (Array.length u) (Array.length v))

let equal ?(eps = 1e-9) u v =
  Array.length u = Array.length v
  && (let ok = ref true in
      for i = 0 to Array.length u - 1 do
        if Float.abs (u.(i) -. v.(i)) > eps then ok := false
      done;
      !ok)

(* The allocating constructors fill a fresh float array in a loop: an
   [Array.init]/[Array.map] closure returns each coordinate boxed. *)

let add u v =
  check_dim "add" u v;
  let r = Array.make (Array.length u) 0.0 in
  for i = 0 to Array.length u - 1 do
    r.(i) <- u.(i) +. v.(i)
  done;
  r

let sub u v =
  check_dim "sub" u v;
  let r = Array.make (Array.length u) 0.0 in
  for i = 0 to Array.length u - 1 do
    r.(i) <- u.(i) -. v.(i)
  done;
  r

let scale k v =
  let r = Array.make (Array.length v) 0.0 in
  for i = 0 to Array.length v - 1 do
    r.(i) <- k *. v.(i)
  done;
  r

(* In-place kernels over caller-owned buffers.  Each coordinate of the
   destination depends only on the same coordinate of the sources, so
   aliasing [dst] with a source is safe. *)

let check_dst name dst u =
  if Array.length dst <> Array.length u then
    invalid_arg (Printf.sprintf "Vec.%s: destination dimension mismatch (%d vs %d)"
                   name (Array.length dst) (Array.length u))

let scale_into dst k v =
  check_dst "scale_into" dst v;
  for i = 0 to Array.length v - 1 do
    dst.(i) <- k *. v.(i)
  done

let lerp_into dst a b s =
  check_dim "lerp_into" a b;
  check_dst "lerp_into" dst a;
  for i = 0 to Array.length a - 1 do
    dst.(i) <- a.(i) +. (s *. (b.(i) -. a.(i)))
  done

let dot u v =
  check_dim "dot" u v;
  let acc = ref 0.0 in
  for i = 0 to Array.length u - 1 do
    acc := !acc +. (u.(i) *. v.(i))
  done;
  !acc

let norm2 v = dot v v

(* The scaling passes below take the max of absolute values with
   [if a > !m || Float.is_nan a then m := a] rather than [Float.max]:
   [a] has a clear sign bit and [m] starts at +0.0 and only ever takes
   values of [a], so [Float.max]'s sign-bit branch cannot fire and the
   two agree bit for bit, NaN and infinities included — without its
   [caml_signbit] calls.  docs/perf.md has the argument. *)

let[@inline] norm v =
  (* Scale by the max coordinate so that squaring cannot overflow. *)
  let m = ref 0.0 in
  for i = 0 to Array.length v - 1 do
    let a = Float.abs v.(i) in
    if a > !m || Float.is_nan a then m := a
  done;
  let m = !m in
  if Float.equal m 0.0 then 0.0
  else if Float.equal m infinity then infinity
  else begin
    let acc = ref 0.0 in
    for i = 0 to Array.length v - 1 do
      let c = v.(i) /. m in
      acc := !acc +. (c *. c)
    done;
    m *. sqrt !acc
  end

(* [dist]/[dist2] fuse the subtraction into the reduction: the
   difference coordinates are recomputed on the fly instead of being
   materialized, with exactly the arithmetic (and rounding) of
   [norm (sub u v)] / [norm2 (sub u v)] — the differential suite
   (test_perf_equiv) checks bit-equality against those references.
   Inlined into this module's loops, [dist] boxes nothing; a call from
   another module boxes its result (dune's dev profile builds with
   -opaque, so nothing inlines across modules). *)

let[@inline] dist u v =
  check_dim "dist" u v;
  let n = Array.length u in
  let m = ref 0.0 in
  for i = 0 to n - 1 do
    let a = Float.abs (u.(i) -. v.(i)) in
    if a > !m || Float.is_nan a then m := a
  done;
  let m = !m in
  if Float.equal m 0.0 then 0.0
  else if Float.equal m infinity then infinity
  else begin
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      let c = (u.(i) -. v.(i)) /. m in
      acc := !acc +. (c *. c)
    done;
    m *. sqrt !acc
  end

let dist2 u v =
  check_dim "dist2" u v;
  let acc = ref 0.0 in
  for i = 0 to Array.length u - 1 do
    let c = u.(i) -. v.(i) in
    acc := !acc +. (c *. c)
  done;
  !acc

let sum_dist p vs =
  let acc = ref 0.0 in
  for i = 0 to Array.length vs - 1 do
    acc := !acc +. dist p vs.(i)
  done;
  !acc

let normalize v =
  let n = norm v in
  if n < 1e-300 then None else Some (scale (1.0 /. n) v)

let lerp a b s =
  check_dim "lerp" a b;
  let r = Array.make (Array.length a) 0.0 in
  for i = 0 to Array.length a - 1 do
    r.(i) <- a.(i) +. (s *. (b.(i) -. a.(i)))
  done;
  r

let move_towards_gap p target ~gap d =
  if d < 0.0 then invalid_arg "Vec.move_towards: negative distance";
  check_dim "move_towards_gap" p target;
  (* A NaN (or overflowed) gap used to fall through to [lerp] with
     [d /. gap = NaN] and silently return a NaN vector. *)
  if not (Float.is_finite gap) then
    invalid_arg "Vec.move_towards: non-finite gap";
  if gap <= d || Float.equal gap 0.0 then copy target
  else lerp p target (d /. gap)

let move_towards p target d =
  if d < 0.0 then invalid_arg "Vec.move_towards: negative distance";
  move_towards_gap p target ~gap:(dist p target) d

let clamp_step ~from limit target =
  if limit < 0.0 then invalid_arg "Vec.clamp_step: negative limit";
  move_towards from target limit

(* In-place [clamp_step]: same decision and the same lerp arithmetic,
   writing into a caller-owned buffer.  [dst] may alias [target] ([lerp_into]
   is coordinate-independent and the gap is measured first). *)
let clamp_step_into dst ~from limit target =
  if limit < 0.0 then invalid_arg "Vec.clamp_step_into: negative limit";
  check_dim "clamp_step_into" from target;
  check_dst "clamp_step_into" dst target;
  let gap = dist from target in
  if not (Float.is_finite gap) then
    invalid_arg "Vec.clamp_step_into: non-finite gap";
  if gap <= limit || Float.equal gap 0.0 then begin
    if dst != target then Array.blit target 0 dst 0 (Array.length target)
  end
  else lerp_into dst from target (limit /. gap)

let centroid ps =
  let n = Array.length ps in
  if n = 0 then invalid_arg "Vec.centroid: empty array";
  let acc = Array.copy ps.(0) in
  for k = 1 to n - 1 do
    check_dim "centroid" acc ps.(k);
    for i = 0 to Array.length acc - 1 do
      acc.(i) <- acc.(i) +. ps.(k).(i)
    done
  done;
  scale_into acc (1.0 /. float_of_int n) acc;
  acc

let pp ppf v =
  Format.fprintf ppf "(";
  Array.iteri
    (fun i c ->
      if i > 0 then Format.fprintf ppf ", ";
      Format.fprintf ppf "%.6g" c)
    v;
  Format.fprintf ppf ")"

let to_string v = Format.asprintf "%a" pp v
