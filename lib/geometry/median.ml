[@@@no_boxed_floats]

let cost c points = Vec.sum_dist c points

let clamp lo hi v = Float.max lo (Float.min hi v)

let median_1d ?(tie_break = 0.0) xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Median.median_1d: empty array";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  if n mod 2 = 1 then sorted.(n / 2)
  else
    (* Every point of [lower, upper] is optimal; pick the one nearest to
       the tie-break position. *)
    let lower = sorted.((n / 2) - 1) and upper = sorted.(n / 2) in
    clamp lower upper tie_break

(* Every loop below runs once per request per iteration, so none may
   allocate.  Two traps box floats on this toolchain: a float ref
   captured by a closure (each update stores a fresh box), and a float
   returned across a module boundary (dune's dev profile compiles with
   -opaque, so [Vec.dist] never inlines here and returns a box).  The
   distances are therefore computed by local [@inline] copies of
   [Vec.dist]'s arithmetic, and the loops are [for]/[while] loops over
   unboxed locals. *)

(* [Vec.dist u v], operation for operation (max-|·| scaling pass, then
   the scaled sum of squares), with [Vec.norm]'s [Float.max]-free max
   — bit-identical, test_perf_equiv checks it. *)
let[@inline] dist u v =
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

(* [Vec.norm [| x0; x1 |]] unrolled: the 2-D kernel's distances are
   [norm2d (u0 -. v0) (u1 -. v1)], the same differences [dist]
   computes. *)
let[@inline] norm2d x0 x1 =
  let a0 = Float.abs x0 and a1 = Float.abs x1 in
  let m = if a0 > 0.0 || Float.is_nan a0 then a0 else 0.0 in
  let m = if a1 > m || Float.is_nan a1 then a1 else m in
  if Float.equal m 0.0 then 0.0
  else if Float.equal m infinity then infinity
  else begin
    let c0 = x0 /. m and c1 = x1 /. m in
    m *. sqrt ((0.0 +. (c0 *. c0)) +. (c1 *. c1))
  end

(* All points within [eps] of the line through [origin] with unit
   direction [dir]?  The arithmetic is the reference
   [sub]/[dot]/[norm] chain: the offset from the line,
   [diff -. along *. dir], is measured as [dist diff proj] with
   [proj = along *. dir] — the same differences, formed inside the
   distance's two passes instead of in a buffer. *)
let collinear_along ~origin ~dir ~eps points =
  let d = Array.length origin in
  let n = Array.length points in
  let diff = Array.make d 0.0 in
  let proj = Array.make d 0.0 in
  let j = ref 0 in
  let on_line = ref true in
  while !on_line && !j < n do
    let p = points.(!j) in
    for i = 0 to d - 1 do
      diff.(i) <- p.(i) -. origin.(i)
    done;
    let along = ref 0.0 in
    for i = 0 to d - 1 do
      along := !along +. (diff.(i) *. dir.(i))
    done;
    for i = 0 to d - 1 do
      proj.(i) <- !along *. dir.(i)
    done;
    on_line := dist diff proj <= eps;
    incr j
  done;
  !on_line

(* Orthogonal projection of [p] onto the segment [a, b]. *)
let project_segment a b p =
  let len2 = Vec.dist2 b a in
  if len2 < 1e-300 then Vec.copy a
  else begin
    let dot_pa_ba = ref 0.0 in
    for i = 0 to Array.length a - 1 do
      dot_pa_ba := !dot_pa_ba +. ((p.(i) -. a.(i)) *. (b.(i) -. a.(i)))
    done;
    let s = clamp 0.0 1.0 (!dot_pa_ba /. len2) in
    Vec.lerp a b s
  end

(* Median of exactly collinear points: reduce to 1-D coordinates along
   the line, tie-break by the projected tie-break coordinate. *)
let[@inline] along_line ~origin ~dir p =
  let acc = ref 0.0 in
  for i = 0 to Array.length origin - 1 do
    acc := !acc +. ((p.(i) -. origin.(i)) *. dir.(i))
  done;
  !acc

let collinear_median ~origin ~dir ~tie_break points =
  let coords = Array.make (Array.length points) 0.0 in
  for j = 0 to Array.length points - 1 do
    coords.(j) <- along_line ~origin ~dir points.(j)
  done;
  let tb = along_line ~origin ~dir tie_break in
  let c = median_1d ~tie_break:tb coords in
  Vec.add origin (Vec.scale c dir)

(* Vardi–Zhang modified Weiszfeld iteration on the iterate [y], in
   place, any dimension.  Per iteration: the multiplicity of the
   iterate among the inputs, and the inverse-distance-weighted sum and
   resultant of the other points; then the damped step.  [next],
   [weighted] and [resultant] are scratch buffers reused across
   iterations; all arithmetic is in the exact order of the allocating
   reference, so the iterates are bit-identical to it. *)
let iterate ~max_iter ~tol ~anchor_eps points y =
  let n = Array.length points in
  let d = Array.length y in
  let next = Array.make d 0.0 in
  let weighted = Array.make d 0.0 in
  let resultant = Array.make d 0.0 in
  let iter = ref 0 in
  let continue = ref true in
  while !continue && !iter < max_iter do
    incr iter;
    let multiplicity = ref 0 in
    let inv_sum = ref 0.0 in
    Array.fill weighted 0 d 0.0;
    Array.fill resultant 0 d 0.0;
    for j = 0 to n - 1 do
      let p = points.(j) in
      let dist = dist y p in
      if dist <= anchor_eps then incr multiplicity
      else begin
        let w = 1.0 /. dist in
        inv_sum := !inv_sum +. w;
        for i = 0 to d - 1 do
          weighted.(i) <- weighted.(i) +. (w *. p.(i));
          resultant.(i) <- resultant.(i) +. (w *. (p.(i) -. y.(i)))
        done
      end
    done;
    if Float.equal !inv_sum 0.0 then
      (* All points coincide with the iterate. *)
      continue := false
    else begin
      for i = 0 to d - 1 do
        next.(i) <- weighted.(i) /. !inv_sum
      done;
      if !multiplicity > 0 then begin
        let r = Vec.norm resultant in
        let k = float_of_int !multiplicity in
        if r <= k then begin
          (* The anchor point is optimal. *)
          continue := false;
          Array.blit y 0 next 0 d
        end
        else begin
          let beta = k /. r in
          for i = 0 to d - 1 do
            next.(i) <- ((1.0 -. beta) *. next.(i)) +. (beta *. y.(i))
          done
        end
      end;
      if dist next y <= tol then continue := false;
      Array.blit next 0 y 0 d
    end
  done

(* [iterate] for d = 2 with the coordinate loops unrolled: the iterate,
   the weighted sum and the resultant live in unboxed locals, and each
   coordinate sees exactly [iterate]'s operations in [iterate]'s order.
   Selected by the points' dimension, it is the path of every 2-D
   serving workload. *)
let iterate_2d ~max_iter ~tol ~anchor_eps points y =
  let n = Array.length points in
  let y0 = ref y.(0) and y1 = ref y.(1) in
  let iter = ref 0 in
  let continue = ref true in
  while !continue && !iter < max_iter do
    incr iter;
    let multiplicity = ref 0 in
    let inv_sum = ref 0.0 in
    let w0 = ref 0.0 and w1 = ref 0.0 in
    let r0 = ref 0.0 and r1 = ref 0.0 in
    for j = 0 to n - 1 do
      let p = points.(j) in
      let p0 = p.(0) and p1 = p.(1) in
      let dist = norm2d (!y0 -. p0) (!y1 -. p1) in
      if dist <= anchor_eps then incr multiplicity
      else begin
        let w = 1.0 /. dist in
        inv_sum := !inv_sum +. w;
        w0 := !w0 +. (w *. p0);
        r0 := !r0 +. (w *. (p0 -. !y0));
        w1 := !w1 +. (w *. p1);
        r1 := !r1 +. (w *. (p1 -. !y1))
      end
    done;
    if Float.equal !inv_sum 0.0 then continue := false
    else begin
      let next0 = ref (!w0 /. !inv_sum) and next1 = ref (!w1 /. !inv_sum) in
      if !multiplicity > 0 then begin
        let r = norm2d !r0 !r1 in
        let k = float_of_int !multiplicity in
        if r <= k then begin
          continue := false;
          next0 := !y0;
          next1 := !y1
        end
        else begin
          let beta = k /. r in
          next0 := ((1.0 -. beta) *. !next0) +. (beta *. !y0);
          next1 := ((1.0 -. beta) *. !next1) +. (beta *. !y1)
        end
      end;
      if norm2d (!next0 -. !y0) (!next1 -. !y1) <= tol then continue := false;
      y0 := !next0;
      y1 := !next1
    end
  done;
  y.(0) <- !y0;
  y.(1) <- !y1

let weiszfeld ?(eps = 1e-10) ?(max_iter = 200) ?tie_break ?init points =
  let n = Array.length points in
  if n = 0 then invalid_arg "Median.weiszfeld: empty array";
  let d = Vec.dim points.(0) in
  for j = 1 to n - 1 do
    if Vec.dim points.(j) <> d then
      invalid_arg "Median.weiszfeld: mixed dimensions"
  done;
  (match init with
   | Some v when Vec.dim v <> d ->
     invalid_arg "Median.weiszfeld: init dimension mismatch"
   | Some _ | None -> ());
  let tie_break = match tie_break with Some t -> t | None -> Vec.zero d in
  if n = 1 then Vec.copy points.(0)
  else if d = 1 then
    [| median_1d ~tie_break:tie_break.(0) (Array.map (fun p -> p.(0)) points) |]
  else begin
    (* Scale for the degeneracy tests relative to the point spread, and
       a point realizing it (the first at the largest distance; distinct
       from origin whenever the spread is positive).  The spread is a
       max of distances, taken in the [Float.max]-free form. *)
    let origin = points.(0) in
    let spread = ref 0.0 and far = ref origin and far_d = ref 0.0 in
    for j = 0 to n - 1 do
      let dd = dist origin points.(j) in
      if dd > !spread || Float.is_nan dd then spread := dd;
      if dd > !far_d then begin
        far := points.(j);
        far_d := dd
      end
    done;
    let spread = !spread in
    if spread < 1e-300 then Vec.copy origin
    else
      match Vec.normalize (Vec.sub !far origin) with
      | None -> Vec.copy origin
      | Some dir ->
        if collinear_along ~origin ~dir ~eps:(1e-12 *. spread) points then
          (if n = 2 then project_segment points.(0) points.(1) tie_break
           else collinear_median ~origin ~dir ~tie_break points)
        else begin
          (* Start from the centroid — never worse than 2x optimal — or,
             when the caller supplies [?init], from that iterate (MtC
             warm start: consecutive rounds move the median only
             slightly, so the previous center converges in a fraction
             of the iterations).  A run started from the centroid is
             bit-identical to the allocating reference. *)
          let y = match init with
            | Some v -> Vec.copy v
            | None -> Vec.centroid points
          in
          let tol = Float.max eps (eps *. spread) in
          (* Loop-invariant: the anchor radius depends only on the
             spread, not on the iterate. *)
          let anchor_eps = 1e-13 *. spread in
          if d = 2 then iterate_2d ~max_iter ~tol ~anchor_eps points y
          else iterate ~max_iter ~tol ~anchor_eps points y;
          y
        end
  end

let center ?init ~server requests =
  let n = Array.length requests in
  if n = 0 then invalid_arg "Median.center: no requests";
  for j = 0 to n - 1 do
    if Vec.dim requests.(j) <> Vec.dim server then
      invalid_arg "Median.center: request dimension mismatch"
  done;
  match n with
  | 1 -> Vec.copy requests.(0)
  | 2 -> project_segment requests.(0) requests.(1) server
  | _ -> weiszfeld ~tie_break:server ?init requests

let mean_center ~server requests =
  if Array.length requests = 0 then invalid_arg "Median.mean_center: no requests";
  for j = 0 to Array.length requests - 1 do
    if Vec.dim requests.(j) <> Vec.dim server then
      invalid_arg "Median.mean_center: request dimension mismatch"
  done;
  Vec.centroid requests
