(* Tests for the fleet round pricing and its golden capture, the
   flow/brute offline optima, the Work-Function Algorithm, predictions
   and combiners. *)

module Vec = Geometry.Vec
module Config = Mobile_server.Config
module Instance = Mobile_server.Instance
module Cost = Mobile_server.Cost
module Fleet = Multi.Fleet

let check_float = Alcotest.(check (float 1e-9))

let rng_of seed = Prng.Stream.named ~name:"fleet-test" ~seed

let bit_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_bits what a b =
  if not (bit_eq a b) then
    Alcotest.failf "%s: %h <> %h (bitwise)" what a b

let config ?(d = 2.0) ?(m = 1.0) ?(delta = 0.5) () =
  Config.make ~d_factor:d ~move_limit:m ~delta ()

let random_fleet rng ~k ~dim =
  Array.init k (fun _ ->
      Array.init dim (fun _ -> Prng.Dist.uniform rng ~lo:(-10.0) ~hi:10.0))

let random_requests rng ~n ~dim =
  Array.init n (fun _ ->
      Array.init dim (fun _ -> Prng.Dist.uniform rng ~lo:(-10.0) ~hi:10.0))

(* --- round pricing against a longhand reference ---------------------- *)

(* The service reduction written out longhand with [Float.min], so
   [Fleet.service_cost] and [Fleet.step] are checked against [Vec.dist]
   directly rather than against themselves. *)
let boxed_service fleet requests =
  Array.fold_left
    (fun acc req ->
      acc
      +. Array.fold_left (fun m s -> Float.min m (Vec.dist s req)) infinity fleet)
    0.0 requests

let qcheck_service_and_step =
  QCheck.Test.make ~count:100 ~name:"service/step ≡ boxed reference"
    QCheck.(triple (int_range 1 6) (int_range 0 8) bool)
    (fun (k, n, serve_first) ->
      let rng = rng_of (1000 + k + (17 * n)) in
      let fleet = random_fleet rng ~k ~dim:2 in
      let fleet' = random_fleet rng ~k ~dim:2 in
      let requests = random_requests rng ~n ~dim:2 in
      let variant =
        if serve_first then Mobile_server.Variant.Serve_first
        else Mobile_server.Variant.Move_first
      in
      let cfg = Config.make ~d_factor:2.0 ~variant () in
      let step = Fleet.step cfg ~from:fleet ~to_:fleet' requests in
      let moved =
        Array.fold_left ( +. ) 0.0 (Array.mapi (fun i s -> Vec.dist s fleet'.(i)) fleet)
      in
      bit_eq (boxed_service fleet requests) (Fleet.service_cost fleet requests)
      && bit_eq step.Cost.move (2.0 *. moved)
      && bit_eq step.Cost.service
           (boxed_service (if serve_first then fleet else fleet') requests))

(* --- golden capture --------------------------------------------------- *)

(* test/golden/fleet_v1.txt was captured while Fleet.step still priced
   rounds on packed kernels; lib/experiments/golden.mli has the rules.
   Never regenerate it to silence this test. *)
let fleet_golden_capture () =
  let path =
    if Sys.file_exists "golden/fleet_v1.txt" then "golden/fleet_v1.txt"
    else Experiments.Golden.fleet_path
  in
  Alcotest.(check string) "byte identical"
    (In_channel.with_open_bin path In_channel.input_all)
    (Experiments.Golden.fleet_string ())

(* --- flow vs brute --------------------------------------------------- *)

let tiny_instance seed ~rounds ~per_round =
  let rng = rng_of seed in
  let steps =
    Array.init rounds (fun _ -> random_requests rng ~n:per_round ~dim:2)
  in
  Instance.make ~start:(Vec.zero 2) steps

let flow_equals_brute () =
  List.iter
    (fun (seed, k, rounds, per_round) ->
      let inst = tiny_instance seed ~rounds ~per_round in
      let cfg = config () in
      let flow = Multi.Fleet_offline.optimum_flow ~k cfg inst in
      let brute = Multi.Fleet_offline.optimum_brute ~k cfg inst in
      check_bits (Printf.sprintf "flow=brute seed %d k %d" seed k) brute flow)
    [
      (41, 1, 3, 2);
      (42, 2, 3, 2);
      (43, 2, 6, 1);
      (44, 3, 3, 2);
      (45, 3, 7, 1);
      (46, 2, 2, 3);
    ]

let flow_monotone_in_k () =
  let inst = Workloads.Hotspots.generate ~dim:2 ~t:10 (rng_of 50) in
  let cfg = config () in
  let prev = ref infinity in
  List.iter
    (fun k ->
      let v = Multi.Fleet_offline.optimum_flow ~k cfg inst in
      if v > !prev +. 1e-9 then
        Alcotest.failf "flow optimum increased at k=%d (%g > %g)" k v !prev;
      prev := v)
    [ 1; 2; 3; 4; 8 ]

let flow_cached_identical () =
  let inst = Workloads.Hotspots.generate ~dim:2 ~t:12 (rng_of 51) in
  let cfg = config () in
  let cold =
    fst
      (Multi.Fleet_flow.solve ~d_factor:2.0 ~start:inst.Instance.start
         ~requests:(Array.concat (Array.to_list inst.Instance.steps))
         ~k:3)
  in
  let cached = Multi.Fleet_offline.optimum_flow ~k:3 cfg inst in
  let warm = Multi.Fleet_offline.optimum_flow ~k:3 cfg inst in
  check_bits "cold = cached" cold cached;
  check_bits "cached = warm" cached warm

let price_chains_validates () =
  let requests = random_requests (rng_of 52) ~n:3 ~dim:2 in
  let price = Multi.Fleet_flow.price_chains ~d_factor:2.0 ~start:(Vec.zero 2) ~requests in
  Alcotest.check_raises "unserved"
    (Invalid_argument "Fleet_flow.price_chains: request left unserved")
    (fun () -> ignore (price [| [| 0; 1 |] |]));
  Alcotest.check_raises "twice"
    (Invalid_argument "Fleet_flow.price_chains: request served twice")
    (fun () -> ignore (price [| [| 0; 1 |]; [| 1; 2 |] |]));
  Alcotest.check_raises "order"
    (Invalid_argument "Fleet_flow.price_chains: chain not time-increasing")
    (fun () -> ignore (price [| [| 1; 0 |]; [| 2 |] |]))

(* --- the Work-Function Algorithm ------------------------------------- *)

let wfa_untruncated_matches_brute () =
  List.iter
    (fun (seed, k, rounds, per_round) ->
      let inst = tiny_instance seed ~rounds ~per_round in
      let cfg = config () in
      let wfa = Multi.Fleet_wfa.run ~beam:1024 ~k cfg inst in
      let brute = Multi.Fleet_offline.optimum_brute ~k cfg inst in
      check_float
        (Printf.sprintf "wfa opt seed %d" seed)
        brute wfa.Multi.Fleet_wfa.opt_estimate;
      if wfa.Multi.Fleet_wfa.serve_cost < wfa.Multi.Fleet_wfa.opt_estimate -. 1e-9
      then Alcotest.failf "WFA served below the optimum")
    [ (61, 2, 3, 2); (62, 3, 5, 1); (63, 2, 5, 1) ]

let wfa_beam_is_upper_bound () =
  let inst = tiny_instance 64 ~rounds:6 ~per_round:2 in
  let cfg = config () in
  let exact = Multi.Fleet_wfa.run ~beam:4096 ~k:3 cfg inst in
  let truncated = Multi.Fleet_wfa.run ~beam:4 ~k:3 cfg inst in
  if
    truncated.Multi.Fleet_wfa.opt_estimate
    < exact.Multi.Fleet_wfa.opt_estimate -. 1e-9
  then Alcotest.failf "beam truncation lowered the work function"

let wfa_deterministic () =
  let inst = Workloads.Hotspots.generate ~dim:2 ~t:20 (rng_of 65) in
  let cfg = config () in
  let a = Multi.Fleet_wfa.run ~k:3 cfg inst in
  let b = Multi.Fleet_wfa.run ~k:3 cfg inst in
  check_bits "serve" a.Multi.Fleet_wfa.serve_cost b.Multi.Fleet_wfa.serve_cost;
  check_bits "opt" a.Multi.Fleet_wfa.opt_estimate b.Multi.Fleet_wfa.opt_estimate;
  (* And through the engine: same bits again. *)
  let r1 =
    Multi.Fleet_engine.total_cost ~k:3 cfg (Multi.Fleet_wfa.algorithm ()) inst
  in
  let r2 =
    Multi.Fleet_engine.total_cost ~k:3 cfg (Multi.Fleet_wfa.algorithm ()) inst
  in
  check_bits "engine" r1 r2

let wfa_engine_budget () =
  let cfg = config () in
  let inst = Workloads.Hotspots.generate ~dim:2 ~t:30 (rng_of 66) in
  let run = Multi.Fleet_engine.run ~k:3 cfg (Multi.Fleet_wfa.algorithm ()) inst in
  let start = Fleet.spread_start ~k:3 inst.Instance.start in
  if
    not
      (Fleet.feasible ~limit:(Config.online_limit cfg) ~start
         run.Multi.Fleet_engine.fleets)
  then Alcotest.fail "WFA trajectory exceeds the online budget"

(* --- predictions ----------------------------------------------------- *)

let prediction_deterministic () =
  let inst = Workloads.Hotspots.generate ~dim:2 ~t:25 (rng_of 70) in
  let a = Multi.Fleet_prediction.generate ~k:3 ~sigma:0.7 ~seed:9 inst in
  let b = Multi.Fleet_prediction.generate ~k:3 ~sigma:0.7 ~seed:9 inst in
  Array.iteri
    (fun t fleet ->
      Array.iteri
        (fun i v ->
          Array.iteri (fun c x -> check_bits "prediction" x b.(t).(i).(c)) v)
        fleet)
    a;
  let c = Multi.Fleet_prediction.generate ~k:3 ~sigma:0.7 ~seed:10 inst in
  if a = c then Alcotest.fail "different seeds produced identical noise"

let prediction_noiseless_serves () =
  let inst = tiny_instance 71 ~rounds:5 ~per_round:2 in
  let preds = Multi.Fleet_prediction.generate ~k:2 ~seed:0 inst in
  (* The noiseless oracle is the greedy relaxation: after each round
     the last request of the round sits under some server exactly. *)
  Array.iteri
    (fun t fleet ->
      let reqs = inst.Instance.steps.(t) in
      let last = reqs.(Array.length reqs - 1) in
      let covered =
        Array.exists (fun s -> Vec.dist s last = 0.0) fleet
      in
      if not covered then Alcotest.failf "round %d: last request uncovered" t)
    preds

let ftp_runs_feasibly () =
  let cfg = config () in
  let inst = Workloads.Hotspots.generate ~dim:2 ~t:30 (rng_of 72) in
  let alg = Multi.Fleet_prediction.algorithm ~k:3 ~sigma:0.3 ~seed:4 inst in
  let run = Multi.Fleet_engine.run ~k:3 cfg alg inst in
  let start = Fleet.spread_start ~k:3 inst.Instance.start in
  if
    not
      (Fleet.feasible ~limit:(Config.online_limit cfg) ~start
         run.Multi.Fleet_engine.fleets)
  then Alcotest.fail "FtP trajectory exceeds the online budget";
  if not (Float.is_finite (Cost.total run.Multi.Fleet_engine.cost)) then
    Alcotest.fail "FtP cost not finite"

(* --- combiners ------------------------------------------------------- *)

let combiner_candidates () =
  [ Multi.Fleet_mtc.independent; Multi.Fleet_algorithm.stay_put ]

let combiner_det_tracks_best () =
  let cfg = config () in
  let inst = Workloads.Hotspots.generate ~dim:2 ~t:50 (rng_of 80) in
  let comb = Multi.Fleet_combine.deterministic (combiner_candidates ()) in
  let c_comb = Multi.Fleet_engine.total_cost ~k:3 cfg comb inst in
  let c_mtc = Multi.Fleet_engine.total_cost ~k:3 cfg Multi.Fleet_mtc.independent inst in
  let c_stay =
    Multi.Fleet_engine.total_cost ~k:3 cfg Multi.Fleet_algorithm.stay_put inst
  in
  let best = Float.min c_mtc c_stay in
  (* The doubling combiner is loosely competitive with the best
     candidate; a generous factor guards the wiring, not the theory. *)
  if c_comb > (10.0 *. best) +. 1e-6 then
    Alcotest.failf "combiner cost %g far above best candidate %g" c_comb best

let combiner_rand_deterministic_with_stream () =
  let cfg = config () in
  let inst = Workloads.Hotspots.generate ~dim:2 ~t:40 (rng_of 81) in
  let run_once () =
    let comb = Multi.Fleet_combine.randomized (combiner_candidates ()) in
    Multi.Fleet_engine.total_cost ~rng:(rng_of 82) ~k:3 cfg comb inst
  in
  check_bits "randomized combiner" (run_once ()) (run_once ())

let combiner_validates () =
  Alcotest.check_raises "empty" (Invalid_argument "fleet-combine-det: no candidates")
    (fun () -> ignore (Multi.Fleet_combine.deterministic []));
  Alcotest.check_raises "factor" (Invalid_argument "fleet-combine-det: factor < 1")
    (fun () ->
      ignore (Multi.Fleet_combine.deterministic ~factor:0.5 (combiner_candidates ())))

(* --- offline comparators: tie-breaking and bounds --------------------- *)

let pick_tie_break () =
  let cost, label = Multi.Fleet_offline.pick ~km:5.0 ~solo:5.0 in
  check_float "tie cost" 5.0 cost;
  Alcotest.(check string) "tie label" "static-kmeans" label;
  let _, label = Multi.Fleet_offline.pick ~km:6.0 ~solo:5.0 in
  Alcotest.(check string) "solo label" "single-server-opt" label;
  let _, label = Multi.Fleet_offline.pick ~km:4.0 ~solo:5.0 in
  Alcotest.(check string) "km label" "static-kmeans" label

let optimum_is_best_upper () =
  let inst = Workloads.Hotspots.generate ~dim:2 ~t:30 (rng_of 90) in
  let cfg = config () in
  let a = Multi.Fleet_offline.optimum ~k:3 cfg inst (rng_of 91) in
  let b, _ = Multi.Fleet_offline.best_upper ~k:3 cfg inst (rng_of 91) in
  check_bits "optimum = best_upper" b a

let single_server_matches_line_dp () =
  let inst = Workloads.Hotspots.generate ~dim:1 ~t:20 (rng_of 92) in
  let cfg = config () in
  check_bits "1-D fallback"
    (Offline.Line_dp.optimum cfg inst)
    (Multi.Fleet_offline.single_server cfg inst)

let () =
  Alcotest.run "fleet"
    [
      ( "golden",
        [ Alcotest.test_case "fleet capture" `Quick fleet_golden_capture ] );
      ( "flow",
        [
          Alcotest.test_case "flow ≡ brute (bitwise)" `Quick flow_equals_brute;
          Alcotest.test_case "monotone in k" `Quick flow_monotone_in_k;
          Alcotest.test_case "cached ≡ cold" `Quick flow_cached_identical;
          Alcotest.test_case "price_chains validates" `Quick price_chains_validates;
        ] );
      ( "wfa",
        [
          Alcotest.test_case "untruncated ≡ brute" `Quick
            wfa_untruncated_matches_brute;
          Alcotest.test_case "beam keeps upper bound" `Quick wfa_beam_is_upper_bound;
          Alcotest.test_case "deterministic" `Quick wfa_deterministic;
          Alcotest.test_case "budget respected" `Quick wfa_engine_budget;
        ] );
      ( "prediction",
        [
          Alcotest.test_case "deterministic at seed" `Quick prediction_deterministic;
          Alcotest.test_case "noiseless covers requests" `Quick
            prediction_noiseless_serves;
          Alcotest.test_case "FtP feasible" `Quick ftp_runs_feasibly;
        ] );
      ( "combine",
        [
          Alcotest.test_case "det tracks best" `Quick combiner_det_tracks_best;
          Alcotest.test_case "rand deterministic" `Quick
            combiner_rand_deterministic_with_stream;
          Alcotest.test_case "validates" `Quick combiner_validates;
        ] );
      ( "offline",
        [
          Alcotest.test_case "pick tie-break" `Quick pick_tie_break;
          Alcotest.test_case "optimum = best_upper" `Quick optimum_is_best_upper;
          Alcotest.test_case "single_server 1-D" `Quick
            single_server_matches_line_dp;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_service_and_step ] );
    ]
