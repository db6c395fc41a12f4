(* Tests for the k-server extension: k-means, the fleet cost model,
   fleet algorithms and offline comparators. *)

module Vec = Geometry.Vec
module Kmeans = Geometry.Kmeans
module Config = Mobile_server.Config
module Instance = Mobile_server.Instance
module Cost = Mobile_server.Cost

let check_float = Alcotest.(check (float 1e-9))

let rng_of seed = Prng.Stream.named ~name:"multi-test" ~seed

(* --- K-means -------------------------------------------------------- *)

let kmeans_separated_clusters () =
  let rng = rng_of 1 in
  let around c =
    Array.init 30 (fun _ ->
        Vec.make2
          (c +. Prng.Dist.gaussian rng ~mu:0.0 ~sigma:0.3)
          (Prng.Dist.gaussian rng ~mu:0.0 ~sigma:0.3))
  in
  let points = Array.concat [ around (-10.0); around 10.0 ] in
  let result = Kmeans.cluster ~k:2 rng points in
  let xs =
    Array.map (fun c -> c.(0)) result.Kmeans.centers
  in
  Array.sort Float.compare xs;
  if Float.abs (xs.(0) +. 10.0) > 1.0 || Float.abs (xs.(1) -. 10.0) > 1.0 then
    Alcotest.failf "centers (%g, %g) not at the clusters" xs.(0) xs.(1)

let kmeans_assignment_consistent () =
  let rng = rng_of 2 in
  let points =
    Array.init 50 (fun _ -> Prng.Dist.in_ball rng ~center:(Vec.zero 2) ~radius:5.0)
  in
  let result = Kmeans.cluster ~k:3 rng points in
  Array.iteri
    (fun i p ->
      let assigned = result.Kmeans.assignment.(i) in
      let nearest = Kmeans.assign result.Kmeans.centers p in
      (* After convergence every point is assigned to its nearest center. *)
      let d_assigned = Vec.dist result.Kmeans.centers.(assigned) p in
      let d_nearest = Vec.dist result.Kmeans.centers.(nearest) p in
      if d_assigned > d_nearest +. 1e-9 then
        Alcotest.failf "point %d not at nearest center" i)
    points

let kmeans_k_exceeds_points () =
  let rng = rng_of 3 in
  let points = [| Vec.make2 1.0 1.0; Vec.make2 2.0 2.0 |] in
  let result = Kmeans.cluster ~k:5 rng points in
  Alcotest.(check int) "capped at n" 2 (Array.length result.Kmeans.centers)

let kmeans_validates () =
  Alcotest.check_raises "empty" (Invalid_argument "Kmeans.cluster: no points")
    (fun () -> ignore (Kmeans.cluster ~k:2 (rng_of 1) [||]));
  Alcotest.check_raises "k < 1" (Invalid_argument "Kmeans.cluster: k < 1")
    (fun () -> ignore (Kmeans.cluster ~k:0 (rng_of 1) [| Vec.zero 2 |]))

let kmeans_inertia_decreases_with_k () =
  let rng = rng_of 4 in
  let points =
    Array.init 60 (fun _ -> Prng.Dist.in_ball rng ~center:(Vec.zero 2) ~radius:10.0)
  in
  let inertia k = (Kmeans.cluster ~k (rng_of 5) points).Kmeans.inertia in
  if inertia 4 > inertia 1 +. 1e-9 then
    Alcotest.fail "more clusters should not increase inertia"

(* --- Fleet cost model ----------------------------------------------- *)

let fleet_service_nearest () =
  let fleet = [| Vec.make1 0.0; Vec.make1 10.0 |] in
  let requests = [| Vec.make1 1.0; Vec.make1 9.0; Vec.make1 5.0 |] in
  (* 1 + 1 + 5. *)
  check_float "min distances" 7.0 (Multi.Fleet.service_cost fleet requests)

let fleet_step_k1_matches_single () =
  let config = Config.make ~d_factor:3.0 () in
  let from = Vec.make1 0.0 and to_ = Vec.make1 1.0 in
  let requests = [| Vec.make1 2.0; Vec.make1 0.0 |] in
  let single = Cost.step config ~from ~to_ requests in
  let fleet =
    Multi.Fleet.step config ~from:[| from |] ~to_:[| to_ |] requests
  in
  check_float "move" single.Cost.move fleet.Cost.move;
  check_float "service" single.Cost.service fleet.Cost.service

let fleet_step_serve_first () =
  let config =
    Config.make ~d_factor:2.0 ~variant:Mobile_server.Variant.Serve_first ()
  in
  let from = [| Vec.make1 0.0 |] and to_ = [| Vec.make1 1.0 |] in
  let requests = [| Vec.make1 1.0 |] in
  let b = Multi.Fleet.step config ~from ~to_ requests in
  (* Serve-first charges the pre-move position: |0 - 1| = 1. *)
  check_float "service at old fleet" 1.0 b.Cost.service;
  check_float "movement" 2.0 b.Cost.move

let fleet_step_validates () =
  let config = Config.make () in
  Alcotest.check_raises "empty fleet"
    (Invalid_argument "Fleet.step: empty fleet") (fun () ->
      ignore (Multi.Fleet.step config ~from:[||] ~to_:[||] [||]));
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Fleet.step: fleet size mismatch") (fun () ->
      ignore
        (Multi.Fleet.step config ~from:[| Vec.zero 1 |] ~to_:[||] [||]))

let fleet_feasible () =
  let start = [| Vec.make1 0.0; Vec.make1 5.0 |] in
  let ok = [| [| Vec.make1 1.0; Vec.make1 4.5 |] |] in
  let bad = [| [| Vec.make1 2.0; Vec.make1 5.0 |] |] in
  Alcotest.(check bool) "ok" true
    (Multi.Fleet.feasible ~limit:1.0 ~start ok);
  Alcotest.(check bool) "bad" false
    (Multi.Fleet.feasible ~limit:1.0 ~start bad)

(* A NaN distance compares false against the slack, so a NaN trajectory
   used to pass; a short round used to pass and a long one raised a bare
   index error. *)
let fleet_feasible_rejects_non_finite () =
  let start = [| Vec.make1 0.0; Vec.make1 5.0 |] in
  Alcotest.(check bool) "NaN coordinate" false
    (Multi.Fleet.feasible ~limit:1.0 ~start
       [| [| Vec.make1 Float.nan; Vec.make1 5.0 |] |]);
  Alcotest.(check bool) "NaN start" false
    (Multi.Fleet.feasible ~limit:1.0
       ~start:[| Vec.make1 0.0; Vec.make1 Float.nan |]
       [| [| Vec.make1 0.0; Vec.make1 5.0 |] |]);
  Alcotest.(check bool) "infinite coordinate" false
    (Multi.Fleet.feasible ~limit:1.0 ~start
       [| [| Vec.make1 0.5; Vec.make1 5.0 |];
          [| Vec.make1 infinity; Vec.make1 5.0 |] |])

let fleet_feasible_rejects_size_change () =
  let start = [| Vec.make1 0.0; Vec.make1 5.0 |] in
  let mismatch = Invalid_argument "Fleet.feasible: fleet size mismatch" in
  Alcotest.check_raises "fewer servers" mismatch (fun () ->
      ignore (Multi.Fleet.feasible ~limit:1.0 ~start [| [| Vec.make1 0.5 |] |]));
  Alcotest.check_raises "more servers" mismatch (fun () ->
      ignore
        (Multi.Fleet.feasible ~limit:1.0 ~start
           [| [| Vec.make1 0.5; Vec.make1 5.0; Vec.make1 9.0 |] |]))

let fleet_replay_rejects_nan () =
  let config = Config.make () in
  let inst = Instance.make ~start:(Vec.zero 1) [| [| Vec.make1 1.0 |] |] in
  let start = Multi.Fleet.spread_start ~k:2 inst.Instance.start in
  Alcotest.check_raises "NaN trajectory"
    (Invalid_argument "Fleet_engine.replay: trajectory exceeds the offline budget")
    (fun () ->
      ignore
        (Multi.Fleet_engine.replay config ~start
           [| [| Vec.make1 0.5; Vec.make1 Float.nan |] |]
           inst))

(* --- Fleet algorithms ----------------------------------------------- *)

let partition_nearest () =
  let fleet = [| Vec.make1 0.0; Vec.make1 10.0 |] in
  let requests = [| Vec.make1 1.0; Vec.make1 9.0; Vec.make1 4.0 |] in
  let buckets = Multi.Fleet_algorithm.partition_requests ~fleet requests in
  Alcotest.(check int) "bucket 0" 2 (List.length buckets.(0));
  Alcotest.(check int) "bucket 1" 1 (List.length buckets.(1))

let fleet_mtc_k1_equals_single_mtc () =
  let config = Config.make ~d_factor:4.0 ~delta:0.5 () in
  let inst =
    Workloads.Clusters.generate ~dim:2 ~t:80 (rng_of 6)
  in
  let single = Mobile_server.Engine.total_cost config Mobile_server.Mtc.algorithm inst in
  let fleet =
    Multi.Fleet_engine.total_cost ~k:1 config Multi.Fleet_mtc.independent inst
  in
  Alcotest.(check (float 1e-9)) "identical with k = 1" single fleet

let fleet_engine_respects_budget () =
  let config = Config.make ~move_limit:0.5 ~delta:0.5 () in
  let inst = Workloads.Hotspots.generate ~dim:2 ~t:60 (rng_of 7) in
  List.iter
    (fun alg ->
      let rng = rng_of 8 in
      let run = Multi.Fleet_engine.run ~rng ~k:3 config alg inst in
      Alcotest.(check bool)
        (alg.Multi.Fleet_algorithm.name ^ " feasible")
        true
        (Multi.Fleet.feasible
           ~limit:(Config.online_limit config)
           ~start:(Multi.Fleet.spread_start ~k:3 inst.Instance.start)
           run.Multi.Fleet_engine.fleets))
    [ Multi.Fleet_mtc.independent; Multi.Fleet_mtc.greedy_partition;
      Multi.Fleet_mtc.kmeans_tracker; Multi.Fleet_algorithm.stay_put ]

let fleet_kmeans_covers_hotspots () =
  (* On well-separated static hotspots, the k-means fleet should end up
     with one server near each hotspot. *)
  let config = Config.make ~d_factor:2.0 ~move_limit:1.0 () in
  let inst =
    Workloads.Hotspots.generate ~hotspots:3 ~drift:0.0 ~sigma:0.3
      ~spread:15.0 ~dim:2 ~t:150 (rng_of 9)
  in
  let run =
    Multi.Fleet_engine.run ~rng:(rng_of 10) ~k:3 config
      Multi.Fleet_mtc.kmeans_tracker inst
  in
  let final = run.Multi.Fleet_engine.fleets.(149) in
  (* Each hotspot center (radius-15 circle) should have a server within
     distance 3. *)
  for h = 0 to 2 do
    let angle = 2.0 *. Float.pi *. float_of_int h /. 3.0 in
    let hotspot = Vec.make2 (15.0 *. cos angle) (15.0 *. sin angle) in
    let nearest =
      Array.fold_left
        (fun acc p -> Float.min acc (Vec.dist p hotspot))
        infinity final
    in
    if nearest > 3.0 then
      Alcotest.failf "hotspot %d uncovered (nearest server %.2f away)" h
        nearest
  done

let fleet_more_servers_never_much_worse () =
  let config = Config.make ~d_factor:4.0 () in
  let inst = Workloads.Hotspots.generate ~dim:2 ~t:100 (rng_of 11) in
  let cost k =
    Multi.Fleet_engine.total_cost ~rng:(rng_of 12) ~k config
      Multi.Fleet_mtc.kmeans_tracker inst
  in
  let c1 = cost 1 and c3 = cost 3 in
  if c3 > c1 *. 1.1 then
    Alcotest.failf "k = 3 (%g) much worse than k = 1 (%g)" c3 c1

let fleet_engine_validates () =
  let config = Config.make () in
  let inst = Instance.make ~start:(Vec.zero 1) [| [||] |] in
  Alcotest.check_raises "k < 1" (Invalid_argument "Fleet_engine: k < 1")
    (fun () ->
      ignore
        (Multi.Fleet_engine.total_cost ~k:0 config Multi.Fleet_mtc.independent
           inst))

(* --- Offline comparators -------------------------------------------- *)

let static_kmeans_feasible_cost () =
  let config = Config.make ~d_factor:2.0 () in
  let inst = Workloads.Hotspots.generate ~dim:2 ~t:80 (rng_of 13) in
  let cost = Multi.Fleet_offline.static_kmeans ~k:3 config inst (rng_of 14) in
  if cost <= 0.0 then Alcotest.fail "static fleet cost must be positive"

let static_kmeans_beats_single_on_hotspots () =
  let config = Config.make ~d_factor:2.0 () in
  let inst =
    Workloads.Hotspots.generate ~hotspots:3 ~drift:0.0 ~spread:20.0 ~dim:2
      ~t:200 (rng_of 15)
  in
  let km = Multi.Fleet_offline.static_kmeans ~k:3 config inst (rng_of 16) in
  let solo = Multi.Fleet_offline.single_server config inst in
  if km >= solo then
    Alcotest.failf "3 parked servers (%g) should beat one mobile (%g)" km solo

let best_upper_picks_minimum () =
  let config = Config.make ~d_factor:2.0 () in
  let inst = Workloads.Hotspots.generate ~dim:2 ~t:60 (rng_of 17) in
  let km = Multi.Fleet_offline.static_kmeans ~k:2 config inst (rng_of 18) in
  let solo = Multi.Fleet_offline.single_server config inst in
  let best, _label = Multi.Fleet_offline.best_upper ~k:2 config inst (rng_of 18) in
  Alcotest.(check (float 1e-6)) "min of the two" (Float.min km solo) best

(* --- Hotspots workload (used above) --------------------------------- *)

let hotspots_shape () =
  let inst =
    Workloads.Hotspots.generate ~hotspots:3 ~r_min:1 ~r_max:2 ~dim:2 ~t:50
      (rng_of 19)
  in
  Alcotest.(check int) "length" 50 (Instance.length inst);
  let lo, hi = Instance.request_bounds inst in
  if lo < 3 || hi > 6 then
    Alcotest.failf "request bounds [%d, %d] outside [3, 6]" lo hi

let hotspots_1d () =
  let inst = Workloads.Hotspots.generate ~dim:1 ~t:20 (rng_of 20) in
  Alcotest.(check int) "dim" 1 (Instance.dim inst)

let hotspots_validates () =
  Alcotest.check_raises "hotspots < 1"
    (Invalid_argument "Hotspots.generate: hotspots < 1") (fun () ->
      ignore (Workloads.Hotspots.generate ~hotspots:0 ~dim:2 ~t:5 (rng_of 1)))

(* --- QCheck --------------------------------------------------------- *)

let qcheck_fleet_service_le_single =
  QCheck.Test.make ~count:100
    ~name:"fleet service cost <= any single member's service cost"
    QCheck.(pair (int_range 1 5) (list_of_size (QCheck.Gen.int_range 1 8)
                                    (pair (float_range (-10.) 10.)
                                       (float_range (-10.) 10.))))
    (fun (k, reqs) ->
      let rng = rng_of 21 in
      let fleet =
        Array.init k (fun _ ->
            Prng.Dist.in_ball rng ~center:(Vec.zero 2) ~radius:5.0)
      in
      let requests =
        Array.of_list (List.map (fun (x, y) -> Vec.make2 x y) reqs)
      in
      let fleet_cost = Multi.Fleet.service_cost fleet requests in
      Array.for_all
        (fun member ->
          fleet_cost
          <= Mobile_server.Cost.service_cost member requests +. 1e-9)
        fleet)

let () =
  Alcotest.run "multi"
    [
      ( "kmeans",
        [
          Alcotest.test_case "separated clusters" `Quick kmeans_separated_clusters;
          Alcotest.test_case "assignment consistent" `Quick
            kmeans_assignment_consistent;
          Alcotest.test_case "k exceeds points" `Quick kmeans_k_exceeds_points;
          Alcotest.test_case "validates" `Quick kmeans_validates;
          Alcotest.test_case "inertia decreases" `Quick
            kmeans_inertia_decreases_with_k;
        ] );
      ( "fleet-model",
        [
          Alcotest.test_case "service nearest" `Quick fleet_service_nearest;
          Alcotest.test_case "k=1 matches single" `Quick
            fleet_step_k1_matches_single;
          Alcotest.test_case "serve-first" `Quick fleet_step_serve_first;
          Alcotest.test_case "validates" `Quick fleet_step_validates;
          Alcotest.test_case "feasible" `Quick fleet_feasible;
          Alcotest.test_case "feasible rejects non-finite" `Quick
            fleet_feasible_rejects_non_finite;
          Alcotest.test_case "feasible rejects size change" `Quick
            fleet_feasible_rejects_size_change;
          Alcotest.test_case "replay rejects NaN" `Quick fleet_replay_rejects_nan;
        ] );
      ( "fleet-algorithms",
        [
          Alcotest.test_case "partition nearest" `Quick partition_nearest;
          Alcotest.test_case "k=1 MtC equivalence" `Quick
            fleet_mtc_k1_equals_single_mtc;
          Alcotest.test_case "respect budget" `Quick fleet_engine_respects_budget;
          Alcotest.test_case "kmeans covers hotspots" `Quick
            fleet_kmeans_covers_hotspots;
          Alcotest.test_case "more servers no worse" `Quick
            fleet_more_servers_never_much_worse;
          Alcotest.test_case "engine validates" `Quick fleet_engine_validates;
        ] );
      ( "fleet-offline",
        [
          Alcotest.test_case "static kmeans cost" `Quick static_kmeans_feasible_cost;
          Alcotest.test_case "beats single on hotspots" `Quick
            static_kmeans_beats_single_on_hotspots;
          Alcotest.test_case "best upper" `Quick best_upper_picks_minimum;
        ] );
      ( "hotspots",
        [
          Alcotest.test_case "shape" `Quick hotspots_shape;
          Alcotest.test_case "1-D" `Quick hotspots_1d;
          Alcotest.test_case "validates" `Quick hotspots_validates;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_fleet_service_le_single ] );
    ]
