(* Differential tests for the hot-path rewrite.

   Every allocation-free kernel in [Geometry.Vec] and the Weiszfeld
   iteration are checked bit-for-bit against their allocating
   references, and the committed golden trajectory pins the
   default-configuration engine byte-for-byte.  Any rewrite that
   changes a rounding step — not just a result — fails here. *)

module Vec = Geometry.Vec
module Median = Geometry.Median
module MS = Mobile_server

let vec = Alcotest.testable (Fmt.of_to_string Vec.to_string) (Vec.equal ~eps:0.0)

(* Coordinates spanning many magnitudes, including values whose squares
   overflow: the fused [dist] must reproduce [norm]'s scaling trick
   exactly. *)
let coord =
  QCheck.map
    (fun (mantissa, expo) -> mantissa *. (10.0 ** float_of_int expo))
    QCheck.(pair (float_range (-10.) 10.) (int_range (-30) 200))

let pointn n = QCheck.map Array.of_list QCheck.(list_of_size (Gen.return n) coord)

let point2 =
  QCheck.map
    (fun (x, y) -> Vec.make2 x y)
    QCheck.(pair (float_range (-100.) 100.) (float_range (-100.) 100.))

let points_sized lo hi =
  QCheck.map Array.of_list
    QCheck.(list_of_size (Gen.int_range lo hi) point2)

let bit_equal u v =
  Vec.dim u = Vec.dim v
  && Array.for_all2 (fun a b -> Int64.equal (Int64.bits_of_float a)
                        (Int64.bits_of_float b)) u v

(* --- fused scalar kernels vs allocating references ------------------ *)

let qcheck_dist_bit_identical =
  QCheck.Test.make ~count:500 ~name:"dist = norm . sub (bitwise)"
    QCheck.(pair (pointn 3) (pointn 3))
    (fun (u, v) ->
      Int64.equal
        (Int64.bits_of_float (Vec.dist u v))
        (Int64.bits_of_float (Vec.norm (Vec.sub u v))))

let qcheck_dist2_bit_identical =
  QCheck.Test.make ~count:500 ~name:"dist2 = norm2 . sub (bitwise)"
    QCheck.(pair (pointn 3) (pointn 3))
    (fun (u, v) ->
      Int64.equal
        (Int64.bits_of_float (Vec.dist2 u v))
        (Int64.bits_of_float (Vec.norm2 (Vec.sub u v))))

(* --- in-place kernels vs allocating references ---------------------- *)

let qcheck_into_kernels =
  QCheck.Test.make ~count:300 ~name:"_into kernels match allocating ops"
    QCheck.(triple (pointn 4) (pointn 4) (float_range (-3.) 3.))
    (fun (u, v, s) ->
      let dst = Vec.zero 4 in
      Vec.add_into dst u v;
      let ok_add = bit_equal dst (Vec.add u v) in
      Vec.sub_into dst u v;
      let ok_sub = bit_equal dst (Vec.sub u v) in
      Vec.scale_into dst s u;
      let ok_scale = bit_equal dst (Vec.scale s u) in
      Vec.lerp_into dst u v s;
      let ok_lerp = bit_equal dst (Vec.lerp u v s) in
      ok_add && ok_sub && ok_scale && ok_lerp)

let qcheck_into_aliasing =
  (* Coordinate i of the result depends only on coordinate i of the
     sources, so dst may alias either source. *)
  QCheck.Test.make ~count:300 ~name:"_into kernels are aliasing-safe"
    QCheck.(triple (pointn 4) (pointn 4) (float_range (-3.) 3.))
    (fun (u, v, s) ->
      let expected_add = Vec.add u v in
      let a = Vec.copy u in
      Vec.add_into a a v;
      let ok_fst = bit_equal a expected_add in
      let b = Vec.copy v in
      Vec.add_into b u b;
      let ok_snd = bit_equal b expected_add in
      let expected_sub = Vec.sub u v in
      let c = Vec.copy u in
      Vec.sub_into c c v;
      let ok_sub = bit_equal c expected_sub in
      let expected_scale = Vec.scale s u in
      let d = Vec.copy u in
      Vec.scale_into d s d;
      let ok_scale = bit_equal d expected_scale in
      let expected_lerp = Vec.lerp u v s in
      let e = Vec.copy u in
      Vec.lerp_into e e v s;
      let ok_lerp = bit_equal e expected_lerp in
      ok_fst && ok_snd && ok_sub && ok_scale && ok_lerp)

let into_dim_mismatch () =
  Alcotest.check_raises "add_into mismatch"
    (Invalid_argument "Vec.add_into: dimension mismatch (2 vs 1)") (fun () ->
      Vec.add_into (Vec.zero 2) (Vec.make2 1.0 2.0) (Vec.make1 1.0));
  Alcotest.check_raises "dst mismatch"
    (Invalid_argument "Vec.add_into: destination dimension mismatch (1 vs 2)")
    (fun () -> Vec.add_into (Vec.make1 0.0) (Vec.make2 1.0 2.0) (Vec.make2 3.0 4.0))

(* --- the Weiszfeld loop vs a verbatim copy of the closure form ------ *)

(* [Median.weiszfeld] and the [Vec] kernels it calls as they stood
   before the allocation-free rewrite: closure iteration, a captured
   float accumulator, [Float.max] in the scaling passes.  Kept verbatim
   (only [Vec.] prefixes resolved to the local copies) so the rewrite is
   checked against the arithmetic it replaced, not against itself. *)
module Closure_ref = struct
  let check_dim u v =
    if Array.length u <> Array.length v then invalid_arg "ref: dimension"

  let sub u v = check_dim u v; Array.init (Array.length u) (fun i -> u.(i) -. v.(i))
  let add u v = check_dim u v; Array.init (Array.length u) (fun i -> u.(i) +. v.(i))
  let scale k v = Array.map (fun c -> k *. c) v

  let sub_into dst u v =
    for i = 0 to Array.length u - 1 do
      dst.(i) <- u.(i) -. v.(i)
    done

  let dot u v =
    let acc = ref 0.0 in
    for i = 0 to Array.length u - 1 do
      acc := !acc +. (u.(i) *. v.(i))
    done;
    !acc

  let norm v =
    let m = Array.fold_left (fun acc c -> Float.max acc (Float.abs c)) 0.0 v in
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

  let dist u v =
    check_dim u v;
    let n = Array.length u in
    let m = ref 0.0 in
    for i = 0 to n - 1 do
      m := Float.max !m (Float.abs (u.(i) -. v.(i)))
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
    let acc = ref 0.0 in
    for i = 0 to Array.length u - 1 do
      let c = u.(i) -. v.(i) in
      acc := !acc +. (c *. c)
    done;
    !acc

  let normalize v =
    let n = norm v in
    if n < 1e-300 then None else Some (scale (1.0 /. n) v)

  let lerp a b s =
    Array.init (Array.length a) (fun i -> a.(i) +. (s *. (b.(i) -. a.(i))))

  let centroid ps =
    let n = Array.length ps in
    let acc = Array.copy ps.(0) in
    for k = 1 to n - 1 do
      for i = 0 to Array.length acc - 1 do
        acc.(i) <- acc.(i) +. ps.(k).(i)
      done
    done;
    let s = 1.0 /. float_of_int n in
    for i = 0 to Array.length acc - 1 do
      acc.(i) <- s *. acc.(i)
    done;
    acc

  let clamp lo hi v = Float.max lo (Float.min hi v)

  let median_1d ?(tie_break = 0.0) xs =
    let n = Array.length xs in
    let sorted = Array.copy xs in
    Array.sort Float.compare sorted;
    if n mod 2 = 1 then sorted.(n / 2)
    else
      let lower = sorted.((n / 2) - 1) and upper = sorted.(n / 2) in
      clamp lower upper tie_break

  let collinear_along ~origin ~dir ~eps points =
    let d = Array.length origin in
    let diff = Array.make d 0.0 in
    let off = Array.make d 0.0 in
    Array.for_all
      (fun p ->
        sub_into diff p origin;
        let along = dot diff dir in
        for i = 0 to d - 1 do
          off.(i) <- diff.(i) -. (along *. dir.(i))
        done;
        norm off <= eps)
      points

  let project_segment a b p =
    let len2 = dist2 b a in
    if len2 < 1e-300 then Array.copy a
    else begin
      let dot_pa_ba = ref 0.0 in
      for i = 0 to Array.length a - 1 do
        dot_pa_ba := !dot_pa_ba +. ((p.(i) -. a.(i)) *. (b.(i) -. a.(i)))
      done;
      let s = clamp 0.0 1.0 (!dot_pa_ba /. len2) in
      lerp a b s
    end

  let along_line ~origin ~dir p =
    let acc = ref 0.0 in
    for i = 0 to Array.length origin - 1 do
      acc := !acc +. ((p.(i) -. origin.(i)) *. dir.(i))
    done;
    !acc

  let collinear_median ~origin ~dir ~tie_break points =
    let coords = Array.map (along_line ~origin ~dir) points in
    let tb = along_line ~origin ~dir tie_break in
    let c = median_1d ~tie_break:tb coords in
    add origin (scale c dir)

  let weiszfeld ?(eps = 1e-10) ?(max_iter = 200) ?tie_break points =
    let n = Array.length points in
    let d = Array.length points.(0) in
    let tie_break =
      match tie_break with Some t -> t | None -> Array.make d 0.0
    in
    if n = 1 then Array.copy points.(0)
    else if d = 1 then
      [| median_1d ~tie_break:tie_break.(0) (Array.map (fun p -> p.(0)) points) |]
    else begin
      let origin = points.(0) in
      let spread =
        Array.fold_left (fun acc p -> Float.max acc (dist origin p)) 0.0 points
      in
      if spread < 1e-300 then Array.copy origin
      else begin
        let far =
          let best = ref points.(0) and best_d = ref 0.0 in
          Array.iter
            (fun p ->
              let dd = dist origin p in
              if dd > !best_d then begin best := p; best_d := dd end)
            points;
          !best
        in
        match normalize (sub far origin) with
        | None -> Array.copy origin
        | Some dir ->
          if collinear_along ~origin ~dir ~eps:(1e-12 *. spread) points then
            (if n = 2 then project_segment points.(0) points.(1) tie_break
             else collinear_median ~origin ~dir ~tie_break points)
          else begin
            let y = centroid points in
            let next = Array.make d 0.0 in
            let weighted = Array.make d 0.0 in
            let resultant = Array.make d 0.0 in
            let tol = Float.max eps (eps *. spread) in
            let anchor_eps = 1e-13 *. spread in
            let iter = ref 0 in
            let continue = ref true in
            while !continue && !iter < max_iter do
              incr iter;
              let multiplicity = ref 0 in
              let inv_sum = ref 0.0 in
              Array.fill weighted 0 d 0.0;
              Array.fill resultant 0 d 0.0;
              Array.iter
                (fun p ->
                  let dist = dist y p in
                  if dist <= anchor_eps then incr multiplicity
                  else begin
                    let w = 1.0 /. dist in
                    inv_sum := !inv_sum +. w;
                    for i = 0 to d - 1 do
                      weighted.(i) <- weighted.(i) +. (w *. p.(i));
                      resultant.(i) <- resultant.(i) +. (w *. (p.(i) -. y.(i)))
                    done
                  end)
                points;
              if Float.equal !inv_sum 0.0 then continue := false
              else begin
                for i = 0 to d - 1 do
                  next.(i) <- weighted.(i) /. !inv_sum
                done;
                if !multiplicity > 0 then begin
                  let r = norm resultant in
                  let k = float_of_int !multiplicity in
                  if r <= k then begin
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
            done;
            y
          end
      end
    end
end

(* Coordinates over many magnitudes: a per-set scale 10^e, e in
   [-12, 12], times per-point mantissas in [-10, 10]. *)
type wz_case = {
  dim : int;
  points : Vec.t array;
  tie_break : Vec.t option;
  max_iter : int option;
}

let wz_case_gen =
  let open QCheck.Gen in
  let* dim = oneofl [ 2; 3 ] in
  let* n = int_range 3 20 in
  let* expo = int_range (-12) 12 in
  let scale = 10.0 ** float_of_int expo in
  let coord = map (fun x -> x *. scale) (float_range (-10.0) 10.0) in
  let point = map Array.of_list (list_repeat dim coord) in
  let* shape = int_range 0 5 in
  let* points =
    match shape with
    | 0 -> array_repeat n point
    | 1 ->
      (* Duplicates: a few distinct points, each repeated, so iterates
         can land on an input point (the Vardi–Zhang anchor branch). *)
      let* k = int_range 1 3 in
      let* base = array_repeat k point in
      array_repeat n (map (fun i -> Array.copy base.(i)) (int_range 0 (k - 1)))
    | 2 ->
      (* Vertex-optimal triangle, its vertices equally weighted, with
         the angle at the first vertex in (120, 127) degrees: the
         median is that vertex, and the iteration from the centroid
         creeps towards it for 160 iterations or more, often up to
         max_iter. *)
      let* a = float_range 0.5 0.577 in
      let* len = float_range 1.0 5.0 in
      let vtx x y =
        Array.init dim (fun i ->
            scale *. (if i = 0 then x else if i = 1 then y else 0.5))
      in
      let tri =
        [| vtx 0.0 0.0; vtx len (a *. len); vtx (-.len) (a *. len) |]
      in
      return (Array.init (3 * (n / 3)) (fun i -> Array.copy tri.(i mod 3)))
    | 3 ->
      (* Near-collinear: points on a line, off it by ~1e-9 relative (or
         exactly on it), crossing the collinearity threshold both ways. *)
      let* dir = point in
      let* jitter = oneofl [ 0.0; 1e-14; 1e-11; 1e-9 ] in
      array_repeat n
        (let* t = float_range (-5.0) 5.0 in
         let* noise = list_repeat dim (float_range (-1.0) 1.0) in
         return
           (Array.mapi
              (fun i nz -> (t *. dir.(i)) +. (jitter *. scale *. nz))
              (Array.of_list noise)))
    | 4 ->
      (* Mixed magnitudes inside one set. *)
      array_repeat n
        (let* e = int_range (-6) 6 in
         map (Array.map (fun x -> x *. (10.0 ** float_of_int e))) point)
    | _ ->
      (* The first iterate on an anchor that is not the median: k
         copies of the origin, a cone of m >= k + 2 points around the
         first axis, then the negation of the cone's left-to-right
         float sum.  The centroid's sum cancels exactly, so the
         iteration starts on the origin, where the other points'
         resultant has norm about m - 1 > k: the Vardi–Zhang damped
         step runs on the first iteration. *)
      let* k = int_range 1 2 in
      let* m = int_range (k + 2) (k + 10) in
      let* cone =
        array_repeat m
          (let* len = float_range 1.0 10.0 in
           let* off = list_repeat (dim - 1) (float_range (-0.2) 0.2) in
           return
             (Array.of_list
                ((len *. scale) :: List.map (fun o -> o *. len *. scale) off)))
      in
      let sum = Array.make dim 0.0 in
      Array.iter
        (fun p -> Array.iteri (fun i x -> sum.(i) <- sum.(i) +. x) p)
        cone;
      return
        (Array.concat
           [ Array.init k (fun _ -> Array.make dim 0.0); cone;
             [| Array.map Float.neg sum |] ])
  in
  let* tie_break = opt point in
  let* max_iter = frequency [ (3, return None); (1, map Option.some (int_range 1 8)) ] in
  return { dim; points; tie_break; max_iter }

let print_wz_case c =
  let vecs vs = String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") vs)) in
  Printf.sprintf "dim=%d max_iter=%s tie=%s points=[%s]" c.dim
    (match c.max_iter with None -> "-" | Some k -> string_of_int k)
    (match c.tie_break with None -> "-" | Some v -> vecs v)
    (String.concat " | " (Array.to_list (Array.map vecs c.points)))

let qcheck_weiszfeld_matches_closure_ref =
  QCheck.Test.make ~count:2000
    ~name:"weiszfeld = closure-form reference (bitwise)"
    (QCheck.make ~print:print_wz_case wz_case_gen)
    (fun c ->
      let got =
        Median.weiszfeld ?tie_break:c.tie_break ?max_iter:c.max_iter
          c.points
      in
      let want =
        Closure_ref.weiszfeld ?tie_break:c.tie_break ?max_iter:c.max_iter
          c.points
      in
      bit_equal got want)

(* Scaling-pass maxima without [Float.max]: the same bits on every
   coordinate class, NaN and the infinities included. *)
let special_coord =
  QCheck.Gen.(
    frequency
      [ (4, float_range (-1e3) 1e3);
        (1, oneofl [ 0.0; -0.0; infinity; neg_infinity; nan; max_float;
                     -.max_float; min_float; 5e-324 ]) ])

let qcheck_dist_matches_float_max =
  QCheck.Test.make ~count:2000 ~name:"Vec/Points.dist = Float.max form (bitwise)"
    (QCheck.make
       ~print:(fun (u, v) ->
         let s a = String.concat "," (List.map (Printf.sprintf "%h") a) in
         s u ^ " / " ^ s v)
       QCheck.Gen.(
         let* d = int_range 1 4 in
         pair (list_repeat d special_coord) (list_repeat d special_coord)))
    (fun (u, v) ->
      let u = Array.of_list u and v = Array.of_list v in
      let bits = Int64.bits_of_float in
      let want = bits (Closure_ref.dist u v) in
      let packed = Geometry.Points.of_vecs ~dim:(Array.length v) [| v |] in
      Int64.equal want (bits (Vec.dist u v))
      && Int64.equal want (bits (Geometry.Points.dist packed 0 u))
      && Int64.equal (bits (Closure_ref.norm u)) (bits (Vec.norm u)))

(* --- allocation: independent of iterations and of request count ----- *)

(* Minor words one call allocates, after a warm-up call.  The two
   [Gc.minor_words] reads box their results; that cost is the same on
   both sides of every comparison below. *)
let words_of f =
  ignore (Sys.opaque_identity (f ()));
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  let after = Gc.minor_words () in
  after -. before

(* Three points each: an equilateral triangle, whose centroid is its
   median (one iteration), and a triangle whose first vertex sits just
   past the 120-degree vertex-optimality threshold — the iteration
   creeps towards that vertex until max_iter.  In 3-D both lie in the
   plane z = 0.25. *)
let tri_set ~dim (x1, y1) (x2, y2) (x3, y3) =
  let pt x y =
    Array.init dim (fun i -> if i = 0 then x else if i = 1 then y else 0.25)
  in
  [| pt x1 y1; pt x2 y2; pt x3 y3 |]

let fast_set ~dim =
  let h = sqrt 3.0 /. 2.0 in
  tri_set ~dim (1.0, 0.0) (-0.5, h) (-0.5, -.h)

let slow_set ~dim =
  let x = 1.01 *. sqrt 3.0 in
  tri_set ~dim (0.0, 0.0) (x, 1.0) (-.x, 1.0)

let weiszfeld_allocation_flat () =
  List.iter
    (fun dim ->
      let fast = fast_set ~dim and slow = slow_set ~dim in
      (* The premise: [fast] stops after one iteration, [slow] runs all
         200 (its 200th iterate differs from its 199th). *)
      Alcotest.(check bool)
        (Printf.sprintf "%d-D fast set converges at once" dim)
        true
        (bit_equal (Median.weiszfeld fast) (Median.weiszfeld ~max_iter:1 fast));
      Alcotest.(check bool)
        (Printf.sprintf "%d-D slow set runs to max_iter" dim)
        false
        (bit_equal (Median.weiszfeld slow) (Median.weiszfeld ~max_iter:199 slow));
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%d-D words: 200 iterations = 1 iteration" dim)
        (words_of (fun () -> Median.weiszfeld fast))
        (words_of (fun () -> Median.weiszfeld slow)))
    [ 2; 3 ]

let session_step_allocation_flat () =
  (* D = 50 keeps the pull r/D below 1 at both request counts and the
     budget is never reached, so both rounds take the same branches
     (lerp towards the center, no clamp); only r differs. *)
  let config = MS.Config.make ~d_factor:50.0 ~move_limit:1000.0 () in
  let rng = Prng.Xoshiro.create 5L in
  let round r =
    Array.init r (fun _ ->
        Vec.make2
          (Prng.Dist.uniform rng ~lo:(-10.0) ~hi:10.0)
          (Prng.Dist.uniform rng ~lo:(-10.0) ~hi:10.0))
  in
  let words r =
    let session =
      MS.Engine.Session.create config MS.Mtc.algorithm ~start:(Vec.zero 2)
    in
    let a = round r and b = round r in
    ignore (MS.Engine.Session.step session a);
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (MS.Engine.Session.step session b));
    let after = Gc.minor_words () in
    after -. before
  in
  Alcotest.(check (float 0.0)) "Session.step words: r = 20 = r = 3" (words 3)
    (words 20)

(* The frame codec: a decode allocates one vector and one array slot
   per request on top of a fixed result, and an encode allocates the
   frame string and nothing else. *)
let codec_rng = Prng.Xoshiro.create 9L

let step_request r =
  let coord () = Prng.Dist.uniform codec_rng ~lo:(-10.0) ~hi:10.0 in
  let requests = Array.init r (fun _ -> Vec.make2 (coord ()) (coord ())) in
  Serve.Frame.Step { session = 3L; requests }

(* Words of a string of [n] bytes: a header and n / 8 + 1 data words. *)
let string_words s = float_of_int (2 + (String.length s / 8))

let frame_decode_allocation () =
  let words r =
    let frame = Serve.Frame.encode_request (step_request r) in
    words_of (fun () -> Serve.Frame.decode_request frame)
  in
  Alcotest.(check (float 0.0))
    "decode_request words: r = 20 is r = 3 plus 4 per request"
    (words 3 +. (4.0 *. 17.0))
    (words 20)

let frame_encode_allocation () =
  let nothing = words_of (fun () -> ()) in
  let check what encode =
    Alcotest.(check (float 0.0)) what
      (nothing +. string_words (encode ()))
      (words_of encode)
  in
  List.iter
    (fun r ->
      let req = step_request r in
      check
        (Printf.sprintf "encode_request words, r = %d: the frame only" r)
        (fun () -> Serve.Frame.encode_request req))
    [ 3; 20 ];
  let reply =
    Serve.Frame.Stepped
      { session = 3L; position = Vec.make2 0.25 (-1.5); move = 0.5;
        service = 2.0; clamped = false }
  in
  check "encode_reply words, 2-D Stepped: the frame only" (fun () ->
      Serve.Frame.encode_reply reply)

(* --- Median.center vs brute force ----------------------------------- *)

(* Iteratively refined grid search: scan a 21x21 grid over a window,
   recentre on the best cell, shrink the window, repeat.  Converges to
   the global optimum for the (convex) Fermat-Weber objective. *)
let grid_min_cost ps =
  let lo_x = ref Float.infinity and hi_x = ref Float.neg_infinity in
  let lo_y = ref Float.infinity and hi_y = ref Float.neg_infinity in
  Array.iter
    (fun p ->
      lo_x := Float.min !lo_x (Vec.x p);
      hi_x := Float.max !hi_x (Vec.x p);
      lo_y := Float.min !lo_y (Vec.y p);
      hi_y := Float.max !hi_y (Vec.y p))
    ps;
  let cx = ref ((!lo_x +. !hi_x) /. 2.0)
  and cy = ref ((!lo_y +. !hi_y) /. 2.0) in
  let w = ref (Float.max (!hi_x -. !lo_x) (!hi_y -. !lo_y) /. 2.0) in
  if !w <= 0.0 then w := 1.0;
  let best = ref (Median.cost (Vec.make2 !cx !cy) ps) in
  for _round = 1 to 8 do
    let bx = ref !cx and by = ref !cy in
    for i = -10 to 10 do
      for j = -10 to 10 do
        let p =
          Vec.make2
            (!cx +. (float_of_int i /. 10.0 *. !w))
            (!cy +. (float_of_int j /. 10.0 *. !w))
        in
        let c = Median.cost p ps in
        if c < !best then begin
          best := c;
          bx := Vec.x p;
          by := Vec.y p
        end
      done
    done;
    cx := !bx;
    cy := !by;
    w := !w /. 5.0
  done;
  !best

let qcheck_center_matches_brute_force =
  (* Default settings stop on step size, and the iteration converges
     linearly, so the cost can sit up to ~5e-5 relative above the true
     optimum when the 200-iteration cap bites (measured over 300 random
     instances); asserted with a 10x margin. *)
  QCheck.Test.make ~count:50 ~name:"center cost = brute-force cost"
    QCheck.(pair (points_sized 3 6) point2)
    (fun (ps, server) ->
      let c = Median.center ~server ps in
      let got = Median.cost c ps in
      let brute = grid_min_cost ps in
      let rel = Float.abs (got -. brute) /. Float.max 1.0 brute in
      if rel <= 5e-4 then true
      else
        QCheck.Test.fail_reportf
          "center cost %.12g vs brute %.12g (rel %.3g) on %d points" got brute
          rel (Array.length ps))

let weiszfeld_converged_matches_brute_force () =
  (* With the iteration budget removed, the gap to brute force closes to
     true tolerance level: the iteration targets the right point.  A
     fixed seed keeps the instances well-conditioned and the run
     deterministic (random near-collinear configurations converge
     sublinearly and are covered, more loosely, by the qcheck test
     above). *)
  let rng = Prng.Xoshiro.create 23L in
  for _ = 1 to 20 do
    let n = 3 + Prng.Xoshiro.next_below rng 4 in
    let ps =
      Array.init n (fun _ ->
          Vec.make2
            (Prng.Dist.uniform rng ~lo:(-100.0) ~hi:100.0)
            (Prng.Dist.uniform rng ~lo:(-100.0) ~hi:100.0))
    in
    let m = Median.weiszfeld ~eps:1e-12 ~max_iter:5000 ps in
    let got = Median.cost m ps in
    let brute = grid_min_cost ps in
    let rel = Float.abs (got -. brute) /. Float.max 1.0 brute in
    if rel > 1e-6 then
      Alcotest.failf "weiszfeld cost %.12g vs brute %.12g (rel %.3g)" got
        brute rel
  done

let center_duplicate_requests () =
  (* All requests identical: the median is that point, regardless of
     the server. *)
  let p = Vec.make2 2.0 (-1.0) in
  let ps = [| Vec.copy p; Vec.copy p; Vec.copy p; Vec.copy p |] in
  let server = Vec.make2 9.0 9.0 in
  Alcotest.check vec "all duplicates" p (Median.center ~server ps)

let center_collinear_even_tie_break () =
  (* Even collinear request set: minimizer segment, tie broken toward
     the server. *)
  let ps =
    [| Vec.make2 0.0 0.0; Vec.make2 2.0 0.0; Vec.make2 6.0 0.0;
       Vec.make2 8.0 0.0 |]
  in
  let server = Vec.make2 3.0 4.0 in
  let expected = Vec.make2 3.0 0.0 in
  let eq = Alcotest.testable (Fmt.of_to_string Vec.to_string)
      (Vec.equal ~eps:1e-9) in
  Alcotest.check eq "tie toward server" expected (Median.center ~server ps)

(* --- golden trajectory ---------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The committed capture was generated by the pre-rewrite seed code; see
   lib/experiments/golden.mli.  Never regenerate it to silence this
   test.  [dune runtest] runs in test/; [dune exec] runs in the repo
   root — accept either. *)
let golden_file =
  if Sys.file_exists "golden/t1_default.trajectory" then
    "golden/t1_default.trajectory"
  else Experiments.Golden.golden_path

let golden_byte_identical () =
  Alcotest.(check string) "default-config trajectory"
    (read_file golden_file)
    (Experiments.Golden.trajectory_string ())

let golden_jobs2_identical () =
  (* Two cells under the PR 2 parallel harness must both reproduce the
     sequential bytes. *)
  let expected = read_file golden_file in
  let runs =
    Exec.map ~jobs:2
      (fun _ -> Experiments.Golden.trajectory_string ())
      [| 0; 1 |]
  in
  Array.iter
    (fun got -> Alcotest.(check string) "jobs=2 cell" expected got)
    runs

let () =
  Alcotest.run "perf-equiv"
    [
      ( "kernels",
        Alcotest.test_case "into dim mismatch" `Quick into_dim_mismatch
        :: List.map QCheck_alcotest.to_alcotest
             [
               qcheck_dist_bit_identical;
               qcheck_dist2_bit_identical;
               qcheck_into_kernels;
               qcheck_into_aliasing;
               qcheck_dist_matches_float_max;
             ] );
      ( "weiszfeld-loop",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_weiszfeld_matches_closure_ref ] );
      ( "allocation",
        [
          Alcotest.test_case "weiszfeld words flat in iterations" `Quick
            weiszfeld_allocation_flat;
          Alcotest.test_case "session step words flat in r" `Quick
            session_step_allocation_flat;
          Alcotest.test_case "frame decode words: 4 per request" `Quick
            frame_decode_allocation;
          Alcotest.test_case "frame encode words: the frame only" `Quick
            frame_encode_allocation;
        ] );
      ( "center",
        [
          Alcotest.test_case "duplicate requests" `Quick
            center_duplicate_requests;
          Alcotest.test_case "collinear even tie-break" `Quick
            center_collinear_even_tie_break;
        ]
        @ Alcotest.test_case "converged weiszfeld = brute force" `Quick
            weiszfeld_converged_matches_brute_force
          :: List.map QCheck_alcotest.to_alcotest
               [ qcheck_center_matches_brute_force ] );
      ( "golden",
        [
          Alcotest.test_case "byte identical" `Quick golden_byte_identical;
          Alcotest.test_case "jobs=2 identical" `Quick golden_jobs2_identical;
        ] );
    ]
