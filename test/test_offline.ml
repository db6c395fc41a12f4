(* Tests for the offline optimum solvers: the line DP against brute
   force, the convex optimizer against the line DP, and the analytic
   bounds. *)

module Vec = Geometry.Vec
module Config = Mobile_server.Config
module Instance = Mobile_server.Instance
module Variant = Mobile_server.Variant
module Cost = Mobile_server.Cost
module Engine = Mobile_server.Engine

let check_float = Alcotest.(check (float 1e-9))

let inst_1d rows =
  Instance.make ~start:(Vec.zero 1)
    (Array.of_list
       (List.map (fun row -> Array.of_list (List.map Vec.make1 row)) rows))

(* --- Line DP: hand-checked cases ----------------------------------- *)

let line_dp_stationary () =
  (* All requests at the start: optimal is to never move, cost 0. *)
  let config = Config.make ~d_factor:2.0 () in
  let inst = inst_1d [ [ 0.0 ]; [ 0.0 ]; [ 0.0 ] ] in
  let sol = Offline.Line_dp.solve config inst in
  check_float "zero cost" 0.0 sol.Offline.Line_dp.cost

let line_dp_single_far_request () =
  (* One request at 10 with m = 1: best is to move 1 toward it (if
     D < service saving) or stay.  With D = 1: move to 1, service 9,
     move 1 -> total 10; staying costs 10 too; D = 1 is the break-even,
     so OPT = 10. *)
  let config = Config.make ~d_factor:1.0 () in
  let inst = inst_1d [ [ 10.0 ] ] in
  check_float "break-even" 10.0 (Offline.Line_dp.optimum config inst)

let line_dp_two_phase () =
  (* Requests: 5 rounds at 0, then 5 rounds at 3, m = 1, D = 1.
     A good plan: sit at 0 for the first phase, walk over during the
     second (positions 1,2,3,3,3): movement 3, service 2+1+0+0+0 = 3,
     total 6.  The DP must do at least as well. *)
  let config = Config.make ~d_factor:1.0 () in
  let inst =
    inst_1d [ [ 0.0 ]; [ 0.0 ]; [ 0.0 ]; [ 0.0 ]; [ 0.0 ];
              [ 3.0 ]; [ 3.0 ]; [ 3.0 ]; [ 3.0 ]; [ 3.0 ] ]
  in
  let opt = Offline.Line_dp.optimum config inst in
  if opt > 6.0 +. 1e-6 then Alcotest.failf "DP missed the plan: %g > 6" opt;
  if opt < 3.0 then Alcotest.failf "DP impossibly cheap: %g" opt

let line_dp_positions_feasible_and_priced () =
  let config = Config.make ~d_factor:3.0 () in
  let rng = Prng.Stream.named ~name:"dp-feas" ~seed:5 in
  let inst =
    Workloads.Clusters.generate ~r_min:1 ~r_max:3 ~sigma:1.0 ~drift:0.4
      ~arena:10.0 ~dim:1 ~t:60 rng
  in
  let sol = Offline.Line_dp.solve config inst in
  Alcotest.(check bool) "feasible" true
    (Cost.feasible ~limit:(Config.offline_limit config)
       ~start:inst.Instance.start sol.Offline.Line_dp.positions);
  let priced =
    Cost.total
      (Cost.trajectory config ~start:inst.Instance.start
         sol.Offline.Line_dp.positions (Instance.pack inst))
  in
  (* The reported cost must equal the price of the reported trajectory. *)
  Alcotest.(check (float 1e-6)) "self-consistent" sol.Offline.Line_dp.cost
    priced

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  n = 0 || scan 0

let line_dp_coarse_pitch_rejected () =
  (* Arena 100000 wide at T = 2: the memory-bounded grid budget forces a
     pitch larger than m = 1, so no discretized move is feasible.  The
     solver used to clamp the window to one grid step and silently
     return a trajectory that hops [pitch > m] per round. *)
  let config = Config.make ~d_factor:1.0 ~move_limit:1.0 () in
  let inst = inst_1d [ [ 0.0 ]; [ 100_000.0 ] ] in
  match Offline.Line_dp.solve config inst with
  | _ -> Alcotest.fail "expected Invalid_argument in the coarse-pitch regime"
  | exception Invalid_argument msg ->
    if not (contains ~needle:"pitch" msg
            && contains ~needle:"movement limit" msg) then
      Alcotest.failf "unhelpful coarse-pitch error: %s" msg

let line_dp_non_finite_hull_rejected () =
  (* Non-finite coordinates used to flow through [int_of_float
     (Float.ceil …)] during grid construction and silently wrap (NaN →
     0), yielding a bogus one-point grid instead of an error. *)
  let config = Config.make ~d_factor:1.0 ~move_limit:1.0 () in
  let reject label inst =
    match Offline.Line_dp.solve config inst with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" label
    | exception Invalid_argument msg ->
      if not (contains ~needle:"finite" msg || contains ~needle:"wide" msg)
      then Alcotest.failf "%s: unhelpful error: %s" label msg
  in
  reject "NaN request" (inst_1d [ [ 0.0 ]; [ Float.nan ] ]);
  reject "infinite request" (inst_1d [ [ 0.0 ]; [ Float.infinity ] ]);
  reject "-infinite request" (inst_1d [ [ Float.neg_infinity ]; [ 0.0 ] ]);
  reject "non-finite start"
    (Instance.make ~start:[| Float.nan |] [| [| [| 0.0 |] |] |]);
  (* A finite-but-astronomical hull overflows the grid-index floats. *)
  reject "astronomically wide hull" (inst_1d [ [ -1e308 ]; [ 1e308 ] ])

let line_dp_rejects_bad_input () =
  let config = Config.make () in
  Alcotest.check_raises "2-D rejected"
    (Invalid_argument "Line_dp.solve: instance is not 1-dimensional")
    (fun () ->
      ignore
        (Offline.Line_dp.solve config
           (Instance.make ~start:(Vec.zero 2) [| [| Vec.make2 0.0 0.0 |] |])));
  Alcotest.check_raises "empty rejected"
    (Invalid_argument "Line_dp.solve: empty instance") (fun () ->
      ignore
        (Offline.Line_dp.solve config (Instance.make ~start:(Vec.zero 1) [||])))

(* --- Line DP vs brute force ---------------------------------------- *)

let random_small_instance rng ~t ~r_max =
  let rows =
    Array.init t (fun _ ->
        let r = 1 + Prng.Xoshiro.next_below rng r_max in
        Array.init r (fun _ ->
            Vec.make1 (Prng.Dist.uniform rng ~lo:(-5.0) ~hi:5.0)))
  in
  Instance.make ~start:(Vec.zero 1) rows

let line_dp_matches_brute () =
  let rng = Prng.Stream.named ~name:"dp-brute" ~seed:11 in
  for case = 1 to 20 do
    let t = 2 + Prng.Xoshiro.next_below rng 5 in
    let inst = random_small_instance rng ~t ~r_max:3 in
    let d = 1.0 +. float_of_int (Prng.Xoshiro.next_below rng 4) in
    let variant =
      if Prng.Dist.fair_coin rng then Variant.Move_first
      else Variant.Serve_first
    in
    let config = Config.make ~d_factor:d ~move_limit:1.5 ~variant () in
    let dp = Offline.Line_dp.optimum ~grid_per_m:96 config inst in
    let brute = Offline.Brute.grid_1d ~cells:600 config inst in
    let tol = 0.02 *. Float.max 1.0 brute in
    if Float.abs (dp -. brute) > tol then
      Alcotest.failf "case %d: DP %.6g vs brute %.6g (variant %s, D=%g)"
        case dp brute (Variant.to_string variant) d
  done

(* --- Line DP: golden capture and naive window-scan oracle ----------- *)

(* test/golden/line_dp_v1.txt was captured from the three-pass kernel
   before the two-pass rewrite; lib/experiments/golden.mli has the
   rules.  Never regenerate it to silence this test. *)
let line_dp_golden_capture () =
  let path =
    if Sys.file_exists "golden/line_dp_v1.txt" then "golden/line_dp_v1.txt"
    else Experiments.Golden.line_dp_path
  in
  Alcotest.(check string) "byte identical"
    (In_channel.with_open_bin path In_channel.input_all)
    (Experiments.Golden.line_dp_string ())

(* Service Σ_i |x − v_i| by the solver's prefix-sum formula over the
   ascending round, with [j] the count of requests <= x. *)
let naive_service sorted prefix x =
  let r = Array.length sorted in
  let j = ref 0 in
  while !j < r && sorted.(!j) <= x do incr j done;
  let below = float_of_int !j and above = float_of_int (r - !j) in
  (below *. x) -. prefix.(!j) +. (prefix.(r) -. prefix.(!j) -. (above *. x))

(* The line DP by direct O(T·G·w) window scans, on the solver's grid
   and with its key arithmetic: the left window minimizes
   base(j) − D·x_j over [k−w, k] and the right one base(j) + D·x_j over
   [k, k+w]; a tie goes to the index scanned last (the largest j on the
   left, the smallest on the right), and a tie between the windows to
   the left one.  The terminal state is the first minimum. *)
let naive_line_dp ~grid_per_m config inst =
  let steps = inst.Instance.steps in
  let t_len = Array.length steps in
  let m = Config.offline_limit config and d = config.Config.d_factor in
  let serve_first = Variant.equal config.Config.variant Variant.Serve_first in
  let start = inst.Instance.start.(0) in
  let lo = ref start and hi = ref start in
  Array.iter
    (Array.iter (fun (v : Vec.t) ->
         if v.(0) < !lo then lo := v.(0);
         if v.(0) > !hi then hi := v.(0)))
    steps;
  let max_grid = max 64 (min 60_000 (40_000_000 / t_len)) in
  let by_m = m /. float_of_int (min grid_per_m 126) in
  let width = !hi -. !lo in
  let pitch =
    Float.max by_m (if width > 0.0 then width /. float_of_int max_grid else by_m)
  in
  let k_lo = -int_of_float (Float.ceil ((start -. !lo) /. pitch)) in
  let g = int_of_float (Float.ceil ((!hi -. start) /. pitch)) - k_lo + 1 in
  let x = Array.init g (fun i -> start +. (float_of_int (k_lo + i) *. pitch)) in
  let w = int_of_float (Float.floor ((m /. pitch) +. 1e-9)) in
  let value = Array.make g infinity in
  value.(-k_lo) <- 0.0;
  let parent = Array.make_matrix t_len g 0 in
  Array.iteri
    (fun t round ->
      let sorted = Array.map (fun (v : Vec.t) -> v.(0)) round in
      Array.sort Float.compare sorted;
      let r = Array.length sorted in
      let prefix = Array.make (r + 1) 0.0 in
      for i = 0 to r - 1 do prefix.(i + 1) <- prefix.(i) +. sorted.(i) done;
      let service k = if r = 0 then 0.0 else naive_service sorted prefix x.(k) in
      let base =
        Array.init g (fun k ->
            if serve_first then value.(k) +. service k else value.(k))
      in
      let key_l j = base.(j) -. (d *. x.(j))
      and key_r j = base.(j) +. (d *. x.(j)) in
      let next =
        Array.init g (fun k ->
            let lj = ref (max 0 (k - w)) in
            for j = !lj + 1 to k do
              if key_l j <= key_l !lj then lj := j
            done;
            let rj = ref (min (g - 1) (k + w)) in
            for j = !rj - 1 downto k do
              if key_r j <= key_r !rj then rj := j
            done;
            let from_left = key_l !lj +. (d *. x.(k))
            and from_right = key_r !rj -. (d *. x.(k)) in
            let best, j =
              if from_left <= from_right then (from_left, !lj)
              else (from_right, !rj)
            in
            parent.(t).(k) <- j;
            if not (Float.is_finite best) then infinity
            else if serve_first then best
            else best +. service k)
      in
      Array.blit next 0 value 0 g)
    steps;
  let best_k = ref 0 in
  Array.iteri (fun k v -> if v < value.(!best_k) then best_k := k) value;
  let positions = Array.make t_len [||] in
  let k = ref !best_k in
  for t = t_len - 1 downto 0 do
    positions.(t) <- [| x.(!k) |];
    k := parent.(t).(!k)
  done;
  (value.(!best_k), pitch, positions)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let qcheck_dp_matches_naive_scan =
  QCheck.Test.make ~count:150
    ~name:"line DP = naive window scan, bit for bit"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.Xoshiro.create (Int64.of_int (seed + 3000)) in
      let below n = Prng.Xoshiro.next_below rng n in
      (* Half the coordinates sit on a 1/8 lattice so equal keys, and
         with them the tie-breaks, are common. *)
      let coord lo hi =
        let v = Prng.Dist.uniform rng ~lo ~hi in
        if Prng.Dist.fair_coin rng then Float.round (v *. 8.0) /. 8.0 else v
      in
      let t = 1 + below 20 in
      let rows =
        Array.init t (fun _ ->
            Array.init (below 4) (fun _ -> Vec.make1 (coord (-3.0) 3.0)))
      in
      let inst = Instance.make ~start:(Vec.make1 (coord (-1.0) 1.0)) rows in
      let d =
        if Prng.Dist.fair_coin rng then [| 1.0; 2.0; 4.0; 7.5; 9.0 |].(below 5)
        else Prng.Dist.uniform rng ~lo:1.0 ~hi:10.0
      in
      let m = [| 0.5; 1.0; 1.3; 2.0 |].(below 4) in
      let variant =
        if Prng.Dist.fair_coin rng then Variant.Move_first
        else Variant.Serve_first
      in
      let grid_per_m = 1 + below 140 in
      let config = Config.make ~d_factor:d ~move_limit:m ~variant () in
      let sol =
        Offline.Line_dp.solve_packed ~grid_per_m config (Instance.pack inst)
      in
      let cost, pitch, positions = naive_line_dp ~grid_per_m config inst in
      same_bits sol.Offline.Line_dp.cost cost
      && same_bits sol.Offline.Line_dp.grid_pitch pitch
      && Array.for_all2
           (fun (a : Vec.t) (b : Vec.t) -> same_bits a.(0) b.(0))
           sol.Offline.Line_dp.positions positions)

(* --- Convex optimizer ---------------------------------------------- *)

let convex_matches_line_dp () =
  let rng = Prng.Stream.named ~name:"cvx-dp" ~seed:21 in
  for case = 1 to 8 do
    let inst = random_small_instance rng ~t:20 ~r_max:2 in
    let config = Config.make ~d_factor:2.0 ~move_limit:1.0 () in
    let dp = Offline.Line_dp.optimum ~grid_per_m:96 config inst in
    let cvx = Offline.Convex_opt.optimum ~max_iter:300 config inst in
    (* The convex solver upper-bounds OPT; require it within 5%. *)
    if cvx < dp -. (0.02 *. Float.max 1.0 dp) then
      Alcotest.failf "case %d: convex %.6g below exact OPT %.6g" case cvx dp;
    if cvx > dp +. (0.05 *. Float.max 1.0 dp) then
      Alcotest.failf "case %d: convex %.6g too loose vs OPT %.6g" case cvx dp
  done

let convex_matches_brute_2d () =
  let rng = Prng.Stream.named ~name:"cvx-brute2d" ~seed:31 in
  for case = 1 to 4 do
    let rows =
      Array.init 4 (fun _ ->
          [| Vec.make2
               (Prng.Dist.uniform rng ~lo:(-2.0) ~hi:2.0)
               (Prng.Dist.uniform rng ~lo:(-2.0) ~hi:2.0) |])
    in
    let inst = Instance.make ~start:(Vec.zero 2) rows in
    let config = Config.make ~d_factor:2.0 ~move_limit:1.0 () in
    let brute = Offline.Brute.grid_2d ~cells_per_axis:25 config inst in
    let cvx = Offline.Convex_opt.optimum ~max_iter:400 config inst in
    (* The lattice overestimates the continuum OPT; the convex solver
       should not be much worse than the lattice value. *)
    if cvx > brute +. (0.08 *. Float.max 1.0 brute) then
      Alcotest.failf "case %d: convex %.6g vs 2-D brute %.6g" case cvx brute
  done

let convex_solution_feasible () =
  let rng = Prng.Stream.named ~name:"cvx-feas" ~seed:41 in
  let inst =
    Workloads.Clusters.generate ~r_min:1 ~r_max:4 ~sigma:1.0 ~drift:0.5
      ~arena:10.0 ~dim:2 ~t:50 rng
  in
  let config = Config.make ~d_factor:4.0 ~move_limit:1.0 () in
  let sol = Offline.Convex_opt.solve config inst in
  Alcotest.(check bool) "feasible" true
    (Cost.feasible ~limit:(Config.offline_limit config)
       ~start:inst.Instance.start sol.Offline.Convex_opt.positions);
  (* The reported cost is the replayed price of the reported
     trajectory, bit for bit. *)
  let priced =
    Cost.total
      (Engine.replay config ~start:inst.Instance.start
         sol.Offline.Convex_opt.positions inst)
  in
  Alcotest.(check int64) "self-consistent"
    (Int64.bits_of_float priced)
    (Int64.bits_of_float sol.Offline.Convex_opt.cost)

let convex_never_beaten_by_online () =
  (* Any online algorithm's cost upper-bounds OPT; the solver should be
     at least as good as MtC itself on the same instance. *)
  let rng = Prng.Stream.named ~name:"cvx-vs-mtc" ~seed:51 in
  let inst =
    Workloads.Random_walk.generate ~clients:2 ~sigma:0.4 ~dim:2 ~t:60 rng
  in
  let config = Config.make ~d_factor:2.0 () in
  let online = Engine.total_cost config Mobile_server.Mtc.algorithm inst in
  let cvx = Offline.Convex_opt.optimum ~max_iter:300 config inst in
  if cvx > online +. (0.02 *. online) then
    Alcotest.failf "solver (%g) worse than the online algorithm (%g)" cvx
      online

(* test/golden/convex_v1.txt was captured while the solver's descent
   phases still read the boxed instance; lib/experiments/golden.mli has
   the rules.  Never regenerate it to silence this test. *)
let convex_golden_capture () =
  let path =
    if Sys.file_exists "golden/convex_v1.txt" then "golden/convex_v1.txt"
    else Experiments.Golden.convex_path
  in
  Alcotest.(check string) "byte identical"
    (In_channel.with_open_bin path In_channel.input_all)
    (Experiments.Golden.convex_string ())

let convex_empty_rejected () =
  let config = Config.make () in
  Alcotest.check_raises "empty"
    (Invalid_argument "Convex_opt.solve: empty instance") (fun () ->
      ignore
        (Offline.Convex_opt.solve config
           (Instance.make ~start:(Vec.zero 2) [||])))

(* Non-finite input is rejected up front under the solver's own name,
   before the warm start's clamp could report a non-finite gap. *)
let convex_non_finite_rejected () =
  let config = Config.make () in
  let solve start round =
    ignore (Offline.Convex_opt.solve config (Instance.make ~start [| round |]))
  in
  let request_msg =
    "Convex_opt.solve: request coordinate is not finite (NaN or infinite)"
  in
  Alcotest.check_raises "NaN request" (Invalid_argument request_msg)
    (fun () -> solve (Vec.zero 2) [| Vec.make2 1.0 Float.nan |]);
  Alcotest.check_raises "infinite request" (Invalid_argument request_msg)
    (fun () -> solve (Vec.zero 2) [| Vec.make2 1.0 Float.infinity |]);
  Alcotest.check_raises "NaN start"
    (Invalid_argument "Convex_opt.solve: start position is not finite")
    (fun () -> solve (Vec.make2 Float.nan 0.0) [| Vec.make2 1.0 0.0 |])

(* The subgradient and descent loops allocate nothing: a default-knob
   solve of the golden f1 instance allocates its scratch, a few
   trajectory copies and the floats that pricing through
   [Cost.trajectory] boxes, about 0.11M minor words.  A vector, tuple
   or closure per iteration pushes it past 2M. *)
let convex_allocation_bounded () =
  let inst =
    Workloads.Hotspots.generate ~hotspots:3 ~dim:2 ~t:40
      (Prng.Stream.named ~name:"golden-convex-f1" ~seed:1)
  in
  Alcotest.(check int) "requests" 174 (Instance.total_requests inst);
  let packed = Instance.pack inst in
  let config = Config.make ~d_factor:2.0 ~move_limit:1.0 ~delta:0.5 () in
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Offline.Convex_opt.solve_packed config packed));
  let words = Gc.minor_words () -. before in
  if words >= 500_000.0 then
    Alcotest.failf "solve_packed allocated %.0f minor words (bound 500,000)"
      words

(* --- Brute validation ---------------------------------------------- *)

let brute_1d_stationary () =
  let config = Config.make ~d_factor:2.0 () in
  let inst = inst_1d [ [ 0.0 ]; [ 0.0 ] ] in
  check_float "zero" 0.0 (Offline.Brute.grid_1d ~cells:101 config inst)

let brute_rejects_bad_input () =
  let config = Config.make () in
  Alcotest.check_raises "cells too small"
    (Invalid_argument "Brute.grid_1d: cells < 2") (fun () ->
      ignore (Offline.Brute.grid_1d ~cells:1 config (inst_1d [ [ 0.0 ] ])))

(* --- Closed-form bounds -------------------------------------------- *)

let closed_form_thm1 () =
  (* x·D·m + m·x² + (T−x)·D·m with D=2, m=1, T=100, x=10:
     20 + 100 + 180 = 300. *)
  check_float "thm1" 300.0
    (Offline.Closed_form.thm1_adversary_bound ~d:2.0 ~m:1.0 ~t:100 ~x:10);
  check_float "thm1 ratio" 5.0
    (Offline.Closed_form.thm1_predicted_ratio ~d:4.0 ~t:100)

let closed_form_thm2 () =
  check_float "thm2 ratio" 16.0
    (Offline.Closed_form.thm2_predicted_ratio ~delta:0.25 ~r_min:2 ~r_max:8);
  Alcotest.check_raises "delta 0"
    (Invalid_argument "Closed_form.thm2_predicted_ratio: delta <= 0")
    (fun () ->
      ignore
        (Offline.Closed_form.thm2_predicted_ratio ~delta:0.0 ~r_min:1
           ~r_max:1))

let closed_form_thm2_cycle_bound () =
  (* Per cycle: max(3·Rmin·m·x², D·x·m + Rmin·m·x²) per cycle.
     With Rmin = 1, m = 1, x = 4, D = 2: max(48, 8 + 16) = 48; two
     cycles = 96. *)
  Alcotest.(check (float 1e-9)) "thm2 cycle bound" 96.0
    (Offline.Closed_form.thm2_adversary_bound ~d:2.0 ~m:1.0 ~r_min:1 ~x:4
       ~cycles:2);
  (* Thm-2 adversary's actual cost stays within it. *)
  let config = Mobile_server.Config.make ~d_factor:2.0 ~delta:0.5 () in
  let rng = Prng.Stream.named ~name:"cf-thm2" ~seed:1 in
  let c =
    Adversary.Thm2.generate ~x:4 ~cycles:2 ~dim:1 ~r_min:1 ~r_max:1 config
      rng
  in
  let cost = Adversary.Construction.adversary_cost config c in
  if cost > 96.0 +. 1e-6 then
    Alcotest.failf "thm2 adversary cost %g exceeds the closed form 96" cost

let closed_form_thm3 () =
  check_float "thm3 bound" 30.0
    (Offline.Closed_form.thm3_adversary_bound ~d:3.0 ~m:1.0 ~cycles:10);
  check_float "thm3 ratio" 4.0
    (Offline.Closed_form.thm3_predicted_ratio ~d:2.0 ~r:8)

let closed_form_thm8 () =
  let b =
    Offline.Closed_form.thm8_adversary_bound ~d:1.0 ~ms:1.0 ~ma:2.0 ~t:100
      ~x:5
  in
  (* D·x·ma + x²·ma²/ms + D·(T − ceil(x·ma/ms))·ms = 10 + 100 + 90. *)
  check_float "thm8 bound" 200.0 b;
  check_float "thm8 ratio" (sqrt 100.0 /. 2.0)
    (Offline.Closed_form.thm8_predicted_ratio ~epsilon:1.0 ~t:100)

let closed_form_phase_validation () =
  Alcotest.check_raises "x > t"
    (Invalid_argument "Closed_form: phase x outside [0, T]") (fun () ->
      ignore
        (Offline.Closed_form.thm1_adversary_bound ~d:1.0 ~m:1.0 ~t:10 ~x:11))

(* --- QCheck: DP optimality against arbitrary feasible plans -------- *)

let qcheck_dp_beats_any_feasible_plan =
  QCheck.Test.make ~count:40
    ~name:"line DP beats random feasible trajectories"
    QCheck.(pair small_int (int_range 2 8))
    (fun (seed, t) ->
      let rng = Prng.Xoshiro.create (Int64.of_int (seed + 1000)) in
      let inst = random_small_instance rng ~t ~r_max:3 in
      let config = Config.make ~d_factor:2.0 ~move_limit:1.0 () in
      let dp = Offline.Line_dp.optimum ~grid_per_m:96 config inst in
      (* A random feasible trajectory. *)
      let pos = ref 0.0 in
      let plan =
        Array.init t (fun _ ->
            pos := !pos +. Prng.Dist.uniform rng ~lo:(-1.0) ~hi:1.0;
            Vec.make1 !pos)
      in
      let plan_cost =
        Cost.total
          (Cost.trajectory config ~start:inst.Instance.start plan
             (Instance.pack inst))
      in
      dp <= plan_cost +. (0.02 *. Float.max 1.0 plan_cost))

let qcheck_dp_output_always_feasible =
  QCheck.Test.make ~count:40
    ~name:"line DP trajectories always pass Cost.feasible"
    QCheck.(triple small_int (int_range 2 30) (int_range 1 4))
    (fun (seed, t, d) ->
      let rng = Prng.Xoshiro.create (Int64.of_int (seed + 2000)) in
      let inst = random_small_instance rng ~t ~r_max:3 in
      let m = Prng.Dist.uniform rng ~lo:0.5 ~hi:2.0 in
      let variant =
        if Prng.Dist.fair_coin rng then Variant.Move_first
        else Variant.Serve_first
      in
      let config =
        Config.make ~d_factor:(float_of_int d) ~move_limit:m ~variant ()
      in
      let sol = Offline.Line_dp.solve config inst in
      Cost.feasible ~limit:(Config.offline_limit config)
        ~start:inst.Instance.start sol.Offline.Line_dp.positions)

(* The solver's reported cost is what replaying its trajectory through
   the engine's pricing charges, bit for bit, and the trajectory is
   feasible — in 1-3 dimensions, both variants, with empty rounds. *)
let qcheck_convex_replays_exactly =
  QCheck.Test.make ~count:120
    ~name:"Convex_opt cost = replay, feasible"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.Xoshiro.create (Int64.of_int (seed + 4000)) in
      let below n = Prng.Xoshiro.next_below rng n in
      let dim = 1 + below 3 in
      let point () =
        Array.init dim (fun _ -> Prng.Dist.uniform rng ~lo:(-3.0) ~hi:3.0)
      in
      let start = point () in
      let rows =
        Array.init (1 + below 10) (fun _ ->
            Array.init (below 4) (fun _ -> point ()))
      in
      let inst = Instance.make ~start rows in
      let variant =
        if Prng.Dist.fair_coin rng then Variant.Move_first
        else Variant.Serve_first
      in
      let config =
        Config.make ~d_factor:[| 1.0; 2.0; 4.0; 7.5 |].(below 4)
          ~move_limit:[| 0.5; 1.0; 1.3 |].(below 3) ~variant ()
      in
      let sol = Offline.Convex_opt.solve ~max_iter:40 ~sweeps:4 config inst in
      let positions = sol.Offline.Convex_opt.positions in
      Cost.feasible ~limit:(Config.offline_limit config) ~start positions
      && same_bits sol.Offline.Convex_opt.cost
           (Cost.total (Engine.replay config ~start positions inst)))

let () =
  Alcotest.run "offline"
    [
      ( "line-dp",
        [
          Alcotest.test_case "stationary" `Quick line_dp_stationary;
          Alcotest.test_case "single far request" `Quick line_dp_single_far_request;
          Alcotest.test_case "two phase" `Quick line_dp_two_phase;
          Alcotest.test_case "feasible + self-consistent" `Quick
            line_dp_positions_feasible_and_priced;
          Alcotest.test_case "rejects bad input" `Quick line_dp_rejects_bad_input;
          Alcotest.test_case "coarse pitch rejected" `Quick
            line_dp_coarse_pitch_rejected;
          Alcotest.test_case "non-finite hull rejected" `Quick
            line_dp_non_finite_hull_rejected;
          Alcotest.test_case "matches brute" `Slow line_dp_matches_brute;
          Alcotest.test_case "golden capture" `Quick line_dp_golden_capture;
        ] );
      ( "convex",
        [
          Alcotest.test_case "matches line DP" `Slow convex_matches_line_dp;
          Alcotest.test_case "matches 2-D brute" `Slow convex_matches_brute_2d;
          Alcotest.test_case "feasible + self-consistent" `Quick
            convex_solution_feasible;
          Alcotest.test_case "never beaten by online" `Quick
            convex_never_beaten_by_online;
          Alcotest.test_case "empty rejected" `Quick convex_empty_rejected;
          Alcotest.test_case "non-finite rejected" `Quick
            convex_non_finite_rejected;
          Alcotest.test_case "allocation bounded" `Quick
            convex_allocation_bounded;
          Alcotest.test_case "golden capture" `Quick convex_golden_capture;
        ] );
      ( "brute",
        [
          Alcotest.test_case "stationary" `Quick brute_1d_stationary;
          Alcotest.test_case "rejects bad input" `Quick brute_rejects_bad_input;
        ] );
      ( "closed-form",
        [
          Alcotest.test_case "thm1" `Quick closed_form_thm1;
          Alcotest.test_case "thm2" `Quick closed_form_thm2;
          Alcotest.test_case "thm2 cycle bound" `Quick
            closed_form_thm2_cycle_bound;
          Alcotest.test_case "thm3" `Quick closed_form_thm3;
          Alcotest.test_case "thm8" `Quick closed_form_thm8;
          Alcotest.test_case "phase validation" `Quick closed_form_phase_validation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_dp_beats_any_feasible_plan;
            qcheck_dp_output_always_feasible;
            qcheck_dp_matches_naive_scan;
            qcheck_convex_replays_exactly ] );
    ]
