(* Tests for the geometry library: vectors, geometric medians and the
   shared min-heap. *)

module Vec = Geometry.Vec
module Median = Geometry.Median
module Heap = Geometry.Heap

let check_float = Alcotest.(check (float 1e-9))
let check_loose = Alcotest.(check (float 1e-6))

let vec = Alcotest.testable (Fmt.of_to_string Vec.to_string) (Vec.equal ~eps:1e-9)

(* --- Vec ----------------------------------------------------------- *)

let vec_basics () =
  let v = Vec.make2 3.0 4.0 in
  Alcotest.check vec "add" [| 4.0; 6.0 |] (Vec.add v (Vec.make2 1.0 2.0));
  Alcotest.check vec "sub" [| 2.0; 2.0 |] (Vec.sub v (Vec.make2 1.0 2.0));
  Alcotest.check vec "scale" [| 6.0; 8.0 |] (Vec.scale 2.0 v);
  check_float "dot" 11.0 (Vec.dot v (Vec.make2 1.0 2.0));
  check_float "norm" 5.0 (Vec.norm v);
  check_float "norm2" 25.0 (Vec.norm2 v);
  check_float "dist" 5.0 (Vec.dist v (Vec.zero 2));
  Alcotest.(check int) "dim" 2 (Vec.dim v);
  check_float "x" 3.0 (Vec.x v);
  check_float "y" 4.0 (Vec.y v)

let vec_dim_mismatch () =
  Alcotest.check_raises "add mismatch"
    (Invalid_argument "Vec.add: dimension mismatch (2 vs 1)") (fun () ->
      ignore (Vec.add (Vec.make2 1.0 2.0) (Vec.make1 1.0)))

let vec_zero_invalid () =
  Alcotest.check_raises "zero dim" (Invalid_argument
    "Vec.zero: dimension must be positive")
    (fun () -> ignore (Vec.zero 0))

let vec_norm_overflow_safe () =
  (* Naive sum of squares would overflow to infinity. *)
  let v = [| 1e200; 1e200 |] in
  check_loose "scaled norm" (1e200 *. sqrt 2.0 /. 1e200)
    (Vec.norm v /. 1e200)

let vec_norm_empty_direction () =
  Alcotest.(check (option vec)) "normalize zero" None
    (Vec.normalize (Vec.zero 3))

let vec_normalize () =
  match Vec.normalize (Vec.make2 3.0 4.0) with
  | None -> Alcotest.fail "expected Some"
  | Some u ->
    check_float "unit" 1.0 (Vec.norm u);
    Alcotest.check vec "direction" [| 0.6; 0.8 |] u

let vec_lerp () =
  let a = Vec.make2 0.0 0.0 and b = Vec.make2 2.0 4.0 in
  Alcotest.check vec "midpoint" [| 1.0; 2.0 |] (Vec.lerp a b 0.5);
  Alcotest.check vec "at 0" a (Vec.lerp a b 0.0);
  Alcotest.check vec "at 1" b (Vec.lerp a b 1.0)

let vec_move_towards () =
  let p = Vec.zero 2 and target = Vec.make2 10.0 0.0 in
  Alcotest.check vec "partial" [| 3.0; 0.0 |] (Vec.move_towards p target 3.0);
  Alcotest.check vec "overshoot clamps" target (Vec.move_towards p target 100.0);
  Alcotest.check vec "zero distance" p (Vec.move_towards p target 0.0);
  Alcotest.check_raises "negative distance"
    (Invalid_argument "Vec.move_towards: negative distance") (fun () ->
      ignore (Vec.move_towards p target (-1.0)))

let vec_move_towards_self () =
  let p = Vec.make2 1.0 1.0 in
  Alcotest.check vec "same point" p (Vec.move_towards p p 5.0)

let vec_move_towards_non_finite () =
  (* A NaN coordinate used to propagate silently: the gap compared
     false against the distance and the caller got a NaN vector back.
     Now the non-finite gap is rejected up front. *)
  let p = Vec.zero 2 in
  let nan_target = Vec.make2 Float.nan 1.0 in
  Alcotest.check_raises "nan target"
    (Invalid_argument "Vec.move_towards: non-finite gap") (fun () ->
      ignore (Vec.move_towards p nan_target 1.0));
  let inf_target = Vec.make2 Float.infinity 0.0 in
  Alcotest.check_raises "infinite target"
    (Invalid_argument "Vec.move_towards: non-finite gap") (fun () ->
      ignore (Vec.move_towards p inf_target 1.0));
  Alcotest.check_raises "nan source"
    (Invalid_argument "Vec.move_towards: non-finite gap") (fun () ->
      ignore (Vec.move_towards nan_target p 1.0))

let vec_clamp_step () =
  let from = Vec.zero 2 in
  let target = Vec.make2 10.0 0.0 in
  Alcotest.check vec "clamped" [| 2.0; 0.0 |]
    (Vec.clamp_step ~from 2.0 target);
  Alcotest.check vec "within limit" target (Vec.clamp_step ~from 20.0 target)

let vec_centroid () =
  let ps = [| Vec.make2 0.0 0.0; Vec.make2 2.0 0.0; Vec.make2 1.0 3.0 |] in
  Alcotest.check vec "centroid" [| 1.0; 1.0 |] (Vec.centroid ps);
  Alcotest.check_raises "empty" (Invalid_argument "Vec.centroid: empty array")
    (fun () -> ignore (Vec.centroid [||]))

let vec_pp () =
  Alcotest.(check string) "render" "(1, 2.5)"
    (Vec.to_string (Vec.make2 1.0 2.5))

(* --- Median: 1-D --------------------------------------------------- *)

let median_1d_odd () =
  check_float "odd count" 2.0 (Median.median_1d [| 5.0; 1.0; 2.0 |])

let median_1d_even_tie_break () =
  let xs = [| 0.0; 10.0 |] in
  check_float "tie toward 4" 4.0 (Median.median_1d ~tie_break:4.0 xs);
  check_float "tie clamped low" 0.0 (Median.median_1d ~tie_break:(-3.0) xs);
  check_float "tie clamped high" 10.0 (Median.median_1d ~tie_break:99.0 xs)

let median_1d_empty () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Median.median_1d: empty array") (fun () ->
      ignore (Median.median_1d [||]))

let median_1d_optimal () =
  (* The returned point minimizes the sum of absolute deviations. *)
  let xs = [| 1.0; 4.0; 6.0; 9.0; 9.5 |] in
  let m = Median.median_1d xs in
  let cost c = Array.fold_left (fun acc x -> acc +. Float.abs (c -. x)) 0.0 xs in
  Array.iter
    (fun candidate ->
      if cost m > cost candidate +. 1e-9 then
        Alcotest.failf "median %g beaten by %g" m candidate)
    [| 0.0; 2.0; 5.0; 6.0; 7.0; 9.0; 12.0 |]

(* --- Median: Weiszfeld --------------------------------------------- *)

let weiszfeld_single () =
  Alcotest.check vec "single point" [| 2.0; 3.0 |]
    (Median.weiszfeld [| Vec.make2 2.0 3.0 |])

let weiszfeld_triangle () =
  (* Equilateral triangle: the median is the centroid. *)
  let ps =
    [| Vec.make2 0.0 0.0; Vec.make2 1.0 0.0; Vec.make2 0.5 (sqrt 3.0 /. 2.0) |]
  in
  let m = Median.weiszfeld ps in
  let c = Vec.centroid ps in
  if Vec.dist m c > 1e-6 then
    Alcotest.failf "median %s far from centroid %s" (Vec.to_string m)
      (Vec.to_string c)

let weiszfeld_majority_anchor () =
  (* A point holding a strict majority of the mass is the median. *)
  let p = Vec.make2 1.0 1.0 in
  let ps = [| p; p; p; Vec.make2 5.0 5.0; Vec.make2 (-2.0) 0.0 |] in
  let m = Median.weiszfeld ps in
  if Vec.dist m p > 1e-6 then
    Alcotest.failf "median should stick to the majority point, got %s"
      (Vec.to_string m)

let weiszfeld_anchor_interior () =
  (* An input point that is NOT the median must not trap the iteration
     (Vardi-Zhang modification): median of 4 points where one input is
     at the centroid-ish location. *)
  let ps =
    [|
      Vec.make2 0.0 0.0; Vec.make2 10.0 0.0; Vec.make2 0.0 10.0;
      Vec.make2 10.0 10.0; Vec.make2 5.0 5.0;
    |]
  in
  let m = Median.weiszfeld ps in
  (* Symmetric configuration: median is the center (5,5). *)
  if Vec.dist m (Vec.make2 5.0 5.0) > 1e-6 then
    Alcotest.failf "median should be the center, got %s" (Vec.to_string m)

let weiszfeld_collinear_even () =
  (* Four collinear points: minimizer set is the middle segment;
     tie-break picks the point closest to the given server. *)
  let ps =
    [| Vec.make2 0.0 0.0; Vec.make2 1.0 1.0; Vec.make2 3.0 3.0;
       Vec.make2 4.0 4.0 |]
  in
  let m = Median.weiszfeld ~tie_break:(Vec.make2 2.0 2.0) ps in
  if Vec.dist m (Vec.make2 2.0 2.0) > 1e-6 then
    Alcotest.failf "tie-break ignored, got %s" (Vec.to_string m);
  let m2 = Median.weiszfeld ~tie_break:(Vec.make2 0.0 0.0) ps in
  if Vec.dist m2 (Vec.make2 1.0 1.0) > 1e-6 then
    Alcotest.failf "clamp to segment end failed, got %s" (Vec.to_string m2)

let weiszfeld_mixed_dims () =
  Alcotest.check_raises "mixed dims"
    (Invalid_argument "Median.weiszfeld: mixed dimensions") (fun () ->
      ignore (Median.weiszfeld [| Vec.make2 0.0 0.0; Vec.make1 1.0 |]))

let weiszfeld_1d_delegates () =
  check_float "1-D exact" 2.0
    (Median.weiszfeld [| [| 1.0 |]; [| 2.0 |]; [| 7.0 |] |]).(0)

(* Random configurations: Weiszfeld's output should (weakly) beat a grid
   of candidate points, including the input points and the centroid. *)
let weiszfeld_near_optimal () =
  let rng = Prng.Xoshiro.create 7L in
  for _ = 1 to 50 do
    let n = 3 + Prng.Xoshiro.next_below rng 8 in
    let ps =
      Array.init n (fun _ ->
          Vec.make2
            (Prng.Dist.uniform rng ~lo:(-10.0) ~hi:10.0)
            (Prng.Dist.uniform rng ~lo:(-10.0) ~hi:10.0))
    in
    let m = Median.weiszfeld ps in
    let best = Median.cost m ps in
    let candidates =
      Array.append ps
        (Array.init 100 (fun _ ->
             Vec.make2
               (Prng.Dist.uniform rng ~lo:(-10.0) ~hi:10.0)
               (Prng.Dist.uniform rng ~lo:(-10.0) ~hi:10.0)))
    in
    Array.iter
      (fun c ->
        if Median.cost c ps < best -. 1e-6 then
          Alcotest.failf "weiszfeld beaten: %g < %g at %s"
            (Median.cost c ps) best (Vec.to_string c))
      candidates
  done

(* --- Median: center ------------------------------------------------ *)

let center_one_request () =
  let server = Vec.zero 2 in
  Alcotest.check vec "single request" [| 4.0; 2.0 |]
    (Median.center ~server [| Vec.make2 4.0 2.0 |])

let center_two_requests_projection () =
  (* Whole segment optimal; pick the projection of the server. *)
  let server = Vec.make2 2.0 5.0 in
  let c =
    Median.center ~server [| Vec.make2 0.0 0.0; Vec.make2 4.0 0.0 |]
  in
  Alcotest.check vec "projection onto segment" [| 2.0; 0.0 |] c

let center_two_requests_clamped () =
  let server = Vec.make2 10.0 3.0 in
  let c =
    Median.center ~server [| Vec.make2 0.0 0.0; Vec.make2 4.0 0.0 |]
  in
  Alcotest.check vec "clamped to endpoint" [| 4.0; 0.0 |] c

let center_empty () =
  Alcotest.check_raises "no requests"
    (Invalid_argument "Median.center: no requests") (fun () ->
      ignore (Median.center ~server:(Vec.zero 2) [||]))

let mean_center_is_centroid () =
  let server = Vec.zero 2 in
  let reqs = [| Vec.make2 0.0 0.0; Vec.make2 4.0 0.0; Vec.make2 2.0 3.0 |] in
  Alcotest.check vec "centroid" [| 2.0; 1.0 |]
    (Median.mean_center ~server reqs)

(* --- QCheck -------------------------------------------------------- *)

let point2 =
  QCheck.map
    (fun (x, y) -> Vec.make2 x y)
    QCheck.(pair (float_range (-100.) 100.) (float_range (-100.) 100.))

let qcheck_triangle_inequality =
  QCheck.Test.make ~count:200 ~name:"triangle inequality"
    QCheck.(triple point2 point2 point2)
    (fun (a, b, c) -> Vec.dist a c <= Vec.dist a b +. Vec.dist b c +. 1e-9)

let qcheck_clamp_step_respects_limit =
  QCheck.Test.make ~count:200 ~name:"clamp_step within limit"
    QCheck.(triple point2 point2 (float_range 0. 10.))
    (fun (from, target, limit) ->
      Vec.dist from (Vec.clamp_step ~from limit target) <= limit +. 1e-9)

let qcheck_median_beats_centroid =
  QCheck.Test.make ~count:100 ~name:"weiszfeld cost <= centroid cost"
    QCheck.(list_of_size (QCheck.Gen.int_range 3 12) point2)
    (fun pts ->
      let ps = Array.of_list pts in
      let m = Median.weiszfeld ps in
      Median.cost m ps <= Median.cost (Vec.centroid ps) ps +. 1e-6)

let qcheck_move_towards_distance =
  QCheck.Test.make ~count:200 ~name:"move_towards moves exactly min(d, gap)"
    QCheck.(triple point2 point2 (float_range 0. 20.))
    (fun (p, target, d) ->
      let gap = Vec.dist p target in
      let moved = Vec.move_towards p target d in
      Float.abs (Vec.dist p moved -. Float.min d gap) <= 1e-6)

(* --- Heap vs the tuple-popping heap it replaced ---------------------- *)

(* The binary min-heap Multi.Fleet_flow kept before it moved onto
   [Geometry.Heap]: swap-based sifts, and a pop that returns a
   (key, node) tuple.  Kept verbatim (only wrapped in a module) so the
   shared heap is checked against the code it replaced, not against
   itself; never edit it to make the property below pass. *)
module Tuple_heap = struct
  type heap = {
    mutable keys : float array;
    mutable nodes : int array;
    mutable size : int;
  }

  let heap_create cap =
    let cap = if cap < 4 then 4 else cap in
    { keys = Array.make cap 0.0; nodes = Array.make cap 0; size = 0 }

  let heap_clear h = h.size <- 0

  let heap_swap h i j =
    let k = h.keys.(i) and n = h.nodes.(i) in
    h.keys.(i) <- h.keys.(j);
    h.nodes.(i) <- h.nodes.(j);
    h.keys.(j) <- k;
    h.nodes.(j) <- n

  let heap_push h key node =
    if h.size = Array.length h.keys then begin
      let cap = 2 * h.size in
      let keys = Array.make cap 0.0 and nodes = Array.make cap 0 in
      Array.blit h.keys 0 keys 0 h.size;
      Array.blit h.nodes 0 nodes 0 h.size;
      h.keys <- keys;
      h.nodes <- nodes
    end;
    let i = ref h.size in
    h.size <- h.size + 1;
    h.keys.(!i) <- key;
    h.nodes.(!i) <- node;
    let up = ref true in
    while !up && !i > 0 do
      let p = (!i - 1) / 2 in
      if h.keys.(p) > h.keys.(!i) then begin
        heap_swap h p !i;
        i := p
      end
      else up := false
    done

  let heap_pop h =
    let key = h.keys.(0) and node = h.nodes.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.keys.(0) <- h.keys.(h.size);
      h.nodes.(0) <- h.nodes.(h.size);
      let i = ref 0 and down = ref true in
      while !down do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && h.keys.(l) < h.keys.(!smallest) then smallest := l;
        if r < h.size && h.keys.(r) < h.keys.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          heap_swap h !i !smallest;
          i := !smallest
        end
        else down := false
      done
    end;
    (key, node)
end

type heap_op = Push of float * int | Pop | Clear

(* Few distinct keys, so equal keys (and the equal-but-distinct 0.0 and
   -0.0) are common, plus the non-finite keys the strict [<] must order
   the same way on both sides. *)
let heap_keys = [| 0.0; -0.0; 1.0; 2.0; 3.0; infinity; Float.nan |]

let heap_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [ ( 6,
          map2
            (fun k node -> Push (heap_keys.(k), node))
            (int_bound (Array.length heap_keys - 1))
            (int_bound 30) );
        (4, return Pop);
        (1, return Clear) ]
  in
  let print = function
    | Push (k, node) -> Printf.sprintf "push %h %d" k node
    | Pop -> "pop"
    | Clear -> "clear"
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print ops))
    (list_size (int_range 0 300) op)

(* Both heaps start at the smallest capacity, so growth is exercised;
   every pop (and a final drain) records (key bits, node). *)
let qcheck_heap_matches_tuple_heap =
  QCheck.Test.make ~count:500
    ~name:"Heap pops = tuple-popping reference (bitwise)" heap_ops
    (fun ops ->
      let h = Heap.create 1 and r = Tuple_heap.heap_create 1 in
      let keys = Array.make 31 0.0 (* nodes are 0 .. 30 *) in
      let got = ref [] and want = ref [] in
      let pop () =
        if h.Heap.size > 0 then begin
          let key = h.Heap.dists.(0) and node = h.Heap.nodes.(0) in
          Heap.remove_top h;
          got := (Int64.bits_of_float key, node) :: !got
        end;
        if r.Tuple_heap.size > 0 then begin
          let key, node = Tuple_heap.heap_pop r in
          want := (Int64.bits_of_float key, node) :: !want
        end
      in
      List.iter
        (function
          | Push (key, node) ->
            keys.(node) <- key;
            Heap.push h keys node;
            Tuple_heap.heap_push r key node
          | Pop -> pop ()
          | Clear ->
            Heap.clear h;
            Tuple_heap.heap_clear r)
        ops;
      while h.Heap.size > 0 || r.Tuple_heap.size > 0 do
        pop ()
      done;
      !got = !want)

let () =
  Alcotest.run "geometry"
    [
      ( "vec",
        [
          Alcotest.test_case "basics" `Quick vec_basics;
          Alcotest.test_case "dim mismatch" `Quick vec_dim_mismatch;
          Alcotest.test_case "zero invalid" `Quick vec_zero_invalid;
          Alcotest.test_case "norm overflow safe" `Quick vec_norm_overflow_safe;
          Alcotest.test_case "normalize zero" `Quick vec_norm_empty_direction;
          Alcotest.test_case "normalize" `Quick vec_normalize;
          Alcotest.test_case "lerp" `Quick vec_lerp;
          Alcotest.test_case "move_towards" `Quick vec_move_towards;
          Alcotest.test_case "move_towards self" `Quick vec_move_towards_self;
          Alcotest.test_case "move_towards non-finite" `Quick
            vec_move_towards_non_finite;
          Alcotest.test_case "clamp_step" `Quick vec_clamp_step;
          Alcotest.test_case "centroid" `Quick vec_centroid;
          Alcotest.test_case "pp" `Quick vec_pp;
        ] );
      ( "median-1d",
        [
          Alcotest.test_case "odd" `Quick median_1d_odd;
          Alcotest.test_case "even tie-break" `Quick median_1d_even_tie_break;
          Alcotest.test_case "empty" `Quick median_1d_empty;
          Alcotest.test_case "optimal" `Quick median_1d_optimal;
        ] );
      ( "weiszfeld",
        [
          Alcotest.test_case "single" `Quick weiszfeld_single;
          Alcotest.test_case "triangle" `Quick weiszfeld_triangle;
          Alcotest.test_case "majority anchor" `Quick weiszfeld_majority_anchor;
          Alcotest.test_case "anchor interior" `Quick weiszfeld_anchor_interior;
          Alcotest.test_case "collinear even" `Quick weiszfeld_collinear_even;
          Alcotest.test_case "mixed dims" `Quick weiszfeld_mixed_dims;
          Alcotest.test_case "1-D delegates" `Quick weiszfeld_1d_delegates;
          Alcotest.test_case "near optimal" `Slow weiszfeld_near_optimal;
        ] );
      ( "center",
        [
          Alcotest.test_case "one request" `Quick center_one_request;
          Alcotest.test_case "two: projection" `Quick center_two_requests_projection;
          Alcotest.test_case "two: clamped" `Quick center_two_requests_clamped;
          Alcotest.test_case "empty" `Quick center_empty;
          Alcotest.test_case "mean center" `Quick mean_center_is_centroid;
        ] );
      ("heap", [ QCheck_alcotest.to_alcotest qcheck_heap_matches_tuple_heap ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_triangle_inequality;
            qcheck_clamp_step_respects_limit;
            qcheck_median_beats_centroid;
            qcheck_move_towards_distance;
          ] );
    ]
