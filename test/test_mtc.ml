(* Tests for the Move-to-Center algorithm: the rule itself, clipping,
   tie-breaking, and the Moving Client specialization. *)

module Vec = Geometry.Vec
module Config = Mobile_server.Config
module Instance = Mobile_server.Instance
module Algorithm = Mobile_server.Algorithm
module Engine = Mobile_server.Engine
module Mtc = Mobile_server.Mtc
module Cost = Mobile_server.Cost

let check_float = Alcotest.(check (float 1e-9))
let vec = Alcotest.testable (Fmt.of_to_string Vec.to_string) (Vec.equal ~eps:1e-9)

(* --- The movement rule --------------------------------------------- *)

let target_damps_by_r_over_d () =
  (* One request at distance 8, D = 4: move d/D = 2 toward it. *)
  let config = Config.make ~d_factor:4.0 ~move_limit:100.0 () in
  let t = Mtc.target config ~server:(Vec.zero 1) [| Vec.make1 8.0 |] in
  check_float "moves d/D" 2.0 t.(0)

let target_full_pull_when_r_ge_d () =
  (* r = 4 >= D = 2: pull factor min(1, 2) = 1 — go all the way to c. *)
  let config = Config.make ~d_factor:2.0 ~move_limit:100.0 () in
  let reqs = Array.make 4 (Vec.make1 6.0) in
  let t = Mtc.target config ~server:(Vec.zero 1) reqs in
  check_float "full pull" 6.0 t.(0)

let target_empty_round_stays () =
  let config = Config.make () in
  Alcotest.check vec "stay" (Vec.make1 3.0)
    (Mtc.target config ~server:(Vec.make1 3.0) [||])

let engine_clips_at_budget () =
  (* Request far away, r = D = 1 so the rule wants the full distance;
     the engine clips at (1+delta)m. *)
  let config = Config.make ~move_limit:1.0 ~delta:0.5 () in
  let inst = Instance.make ~start:(Vec.zero 1) [| [| Vec.make1 50.0 |] |] in
  let run = Engine.run config Mtc.algorithm inst in
  check_float "clipped move" 1.5 run.Engine.positions.(0).(0)

let center_tie_breaks_toward_server () =
  (* Two requests: whole segment optimal; MtC picks the projection of
     the server, here inside the segment, so it does not move at all
     (r = 2 >= D = 1 pulls fully onto the projection = itself). *)
  let config = Config.make () in
  let inst =
    Instance.make ~start:(Vec.make1 2.0)
      [| [| Vec.make1 0.0; Vec.make1 4.0 |] |]
  in
  let run = Engine.run config Mtc.algorithm inst in
  check_float "no movement needed" 2.0 run.Engine.positions.(0).(0)

let center_exposed_matches_median () =
  let server = Vec.make2 0.0 0.0 in
  let reqs = [| Vec.make2 1.0 0.0; Vec.make2 2.0 0.0; Vec.make2 3.0 0.0 |] in
  Alcotest.check vec "median of three" (Vec.make2 2.0 0.0)
    (Mtc.center ~server reqs)

let moving_client_rule () =
  (* Theorem 10's rule: with one request, move min(m, d/D) toward the
     agent. *)
  let config = Config.make ~d_factor:4.0 ~move_limit:1.0 () in
  let inst =
    Instance.make ~start:(Vec.zero 1)
      [| [| Vec.make1 2.0 |]; [| Vec.make1 2.0 |] |]
  in
  let run = Engine.run config Mtc.algorithm inst in
  (* Round 1: d = 2, d/D = 0.5 < m -> position 0.5.
     Round 2: d = 1.5, d/D = 0.375 -> position 0.875. *)
  check_float "round 1" 0.5 run.Engine.positions.(0).(0);
  check_float "round 2" 0.875 run.Engine.positions.(1).(0)

let deterministic () =
  let config = Config.make ~d_factor:2.0 ~delta:0.25 () in
  let rng = Prng.Stream.named ~name:"mtc-det" ~seed:9 in
  let inst = Workloads.Clusters.generate ~dim:2 ~t:50 rng in
  let a = Engine.total_cost config Mtc.algorithm inst in
  let b = Engine.total_cost config Mtc.algorithm inst in
  check_float "same cost on same input" a b

(* --- The centroid ablation ----------------------------------------- *)

let mean_variant_uses_centroid () =
  (* Three collinear requests, two at 0 and one at 9: median is 0,
     centroid is 3.  With r >= D both variants pull fully. *)
  let config = Config.make ~move_limit:100.0 () in
  let mk alg =
    let inst =
      Instance.make ~start:(Vec.zero 1)
        [| [| Vec.make1 0.0; Vec.make1 0.0; Vec.make1 9.0 |] |]
    in
    (Engine.run config alg inst).Engine.positions.(0).(0)
  in
  check_float "mtc goes to median" 0.0 (mk Mtc.algorithm);
  check_float "mtc-mean goes to centroid" 3.0 (mk Mtc.mean_variant)

let with_center_custom () =
  let pinned = Vec.make1 7.0 in
  let alg =
    Mtc.with_center ~name:"pinned" (fun ~server:_ _reqs -> Vec.copy pinned)
  in
  Alcotest.(check string) "name" "pinned" alg.Algorithm.name;
  let config = Config.make ~move_limit:100.0 () in
  let inst = Instance.make ~start:(Vec.zero 1) [| [| Vec.make1 0.0 |] |] in
  let run = Engine.run config alg inst in
  check_float "moved toward pinned center" 7.0 run.Engine.positions.(0).(0)

(* --- Competitiveness smoke checks ---------------------------------- *)

let beats_stay_put_on_drift () =
  (* On a steadily drifting workload MtC must eventually beat never
     moving. *)
  let config = Config.make ~d_factor:2.0 () in
  let rng = Prng.Stream.named ~name:"mtc-drift" ~seed:1 in
  let inst =
    Workloads.Clusters.generate ~r_min:2 ~r_max:2 ~sigma:0.2 ~drift:0.5
      ~switch_prob:0.0 ~dim:2 ~t:300 rng
  in
  let mtc_cost = Engine.total_cost config Mtc.algorithm inst in
  let lazy_cost = Engine.total_cost config Algorithm.stay_put inst in
  if mtc_cost >= lazy_cost then
    Alcotest.failf "MtC (%g) should beat stay-put (%g) on drift" mtc_cost
      lazy_cost

let bounded_vs_line_opt () =
  (* The headline guarantee, in miniature: on a 1-D drifting workload
     with delta = 1, MtC stays within a small constant of the exact
     optimum. *)
  let config = Config.make ~d_factor:2.0 ~delta:1.0 () in
  let rng = Prng.Stream.named ~name:"mtc-opt" ~seed:3 in
  let inst =
    Workloads.Clusters.generate ~r_min:1 ~r_max:3 ~sigma:1.0 ~drift:0.3
      ~arena:15.0 ~dim:1 ~t:200 rng
  in
  let opt = Offline.Line_dp.optimum config inst in
  let cost = Engine.total_cost config Mtc.algorithm inst in
  let ratio = cost /. opt in
  if ratio > 10.0 then Alcotest.failf "ratio %g implausibly large" ratio;
  if ratio < 1.0 -. 1e-6 then
    Alcotest.failf "ratio %g below 1 — OPT or cost accounting broken" ratio

(* --- QCheck -------------------------------------------------------- *)

let qcheck_target_never_overshoots_center =
  QCheck.Test.make ~count:200 ~name:"target lies on [server, center]"
    QCheck.(
      pair
        (pair (float_range (-10.) 10.) (float_range (-10.) 10.))
        (list_of_size (QCheck.Gen.int_range 1 6)
           (pair (float_range (-10.) 10.) (float_range (-10.) 10.))))
    (fun ((sx, sy), reqs) ->
      let server = Vec.make2 sx sy in
      let requests =
        Array.of_list (List.map (fun (x, y) -> Vec.make2 x y) reqs)
      in
      let config = Config.make ~d_factor:3.0 ~move_limit:1000.0 () in
      let c = Mtc.center ~server requests in
      let t = Mtc.target config ~server requests in
      (* d(server, t) + d(t, c) = d(server, c) up to numerical noise. *)
      Float.abs (Vec.dist server t +. Vec.dist t c -. Vec.dist server c)
      <= 1e-6)

(* MtC commutes with isometries: translating (or reflecting) the whole
   instance translates the trajectory and leaves the cost unchanged.
   [map_points f inst] applies [f] to the start and to every request. *)
let map_points f (inst : Instance.t) =
  Instance.make ~start:(f inst.Instance.start)
    (Array.map (Array.map f) inst.Instance.steps)

let qcheck_translation_invariance =
  QCheck.Test.make ~count:50 ~name:"cost invariant under translation"
    QCheck.(pair small_int (pair (float_range (-50.) 50.) (float_range (-50.) 50.)))
    (fun (seed, (dx, dy)) ->
      let rng () = Prng.Stream.named ~name:"mtc-iso" ~seed in
      let inst = Workloads.Clusters.generate ~dim:2 ~t:30 (rng ()) in
      let config = Config.make ~d_factor:3.0 ~delta:0.5 () in
      let shift = Vec.make2 dx dy in
      let moved = map_points (fun v -> Vec.add v shift) inst in
      let a = Engine.total_cost config Mtc.algorithm inst in
      let b = Engine.total_cost config Mtc.algorithm moved in
      Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 a)

let qcheck_reflection_invariance =
  QCheck.Test.make ~count:50 ~name:"cost invariant under reflection"
    QCheck.small_int
    (fun seed ->
      let rng () = Prng.Stream.named ~name:"mtc-refl" ~seed in
      let inst = Workloads.Clusters.generate ~dim:2 ~t:30 (rng ()) in
      let config = Config.make ~d_factor:3.0 ~delta:0.5 () in
      let mirrored = map_points (fun v -> Vec.make2 (-.v.(0)) v.(1)) inst in
      let a = Engine.total_cost config Mtc.algorithm inst in
      let b = Engine.total_cost config Mtc.algorithm mirrored in
      Float.abs (a -. b) <= 1e-6 *. Float.max 1.0 a)

let qcheck_step_distance_rule =
  QCheck.Test.make ~count:200 ~name:"step distance = min(1, r/D)·gap"
    QCheck.(
      pair (int_range 1 8)
        (pair (float_range 1. 8.) (float_range 0.1 20.)))
    (fun (r, (d, gap)) ->
      let config = Config.make ~d_factor:d ~move_limit:1000.0 () in
      let server = Vec.zero 2 in
      let requests = Array.make r (Vec.make2 gap 0.0) in
      let t = Mtc.target config ~server requests in
      let expected = Float.min 1.0 (float_of_int r /. d) *. gap in
      Float.abs (Vec.dist server t -. expected) <= 1e-6 *. gap)

let () =
  Alcotest.run "mtc"
    [
      ( "rule",
        [
          Alcotest.test_case "damps by r/D" `Quick target_damps_by_r_over_d;
          Alcotest.test_case "full pull when r >= D" `Quick
            target_full_pull_when_r_ge_d;
          Alcotest.test_case "empty round stays" `Quick target_empty_round_stays;
          Alcotest.test_case "engine clips at budget" `Quick engine_clips_at_budget;
          Alcotest.test_case "tie-break toward server" `Quick
            center_tie_breaks_toward_server;
          Alcotest.test_case "center = geometric median" `Quick
            center_exposed_matches_median;
          Alcotest.test_case "moving-client rule" `Quick moving_client_rule;
          Alcotest.test_case "deterministic" `Quick deterministic;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "mean variant" `Quick mean_variant_uses_centroid;
          Alcotest.test_case "custom center" `Quick with_center_custom;
        ] );
      ( "competitiveness",
        [
          Alcotest.test_case "beats stay-put on drift" `Quick
            beats_stay_put_on_drift;
          Alcotest.test_case "bounded vs line OPT" `Quick bounded_vs_line_opt;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_target_never_overshoots_center;
            qcheck_step_distance_rule;
            qcheck_translation_invariance;
            qcheck_reflection_invariance;
          ] );
    ]
