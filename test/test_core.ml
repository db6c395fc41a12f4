(* Tests for the mobile_server core: model types, cost accounting and
   the simulation engine. *)

module Vec = Geometry.Vec
module Variant = Mobile_server.Variant
module Config = Mobile_server.Config
module Instance = Mobile_server.Instance
module Cost = Mobile_server.Cost
module Algorithm = Mobile_server.Algorithm
module Engine = Mobile_server.Engine

let check_float = Alcotest.(check (float 1e-9))

let vec = Alcotest.testable (Fmt.of_to_string Vec.to_string) (Vec.equal ~eps:1e-9)

(* --- Variant ------------------------------------------------------- *)

let variant_round_trip () =
  List.iter
    (fun v ->
      match Variant.of_string (Variant.to_string v) with
      | Some v' -> Alcotest.(check bool) "round trip" true (Variant.equal v v')
      | None -> Alcotest.fail "of_string failed")
    Variant.all

let variant_aliases () =
  Alcotest.(check bool) "standard" true
    (Variant.of_string "standard" = Some Variant.Move_first);
  Alcotest.(check bool) "answer-first" true
    (Variant.of_string "Answer-First" = Some Variant.Serve_first);
  Alcotest.(check bool) "unknown" true (Variant.of_string "nope" = None)

(* --- Config -------------------------------------------------------- *)

let config_defaults () =
  let c = Config.make () in
  check_float "D" 1.0 c.Config.d_factor;
  check_float "m" 1.0 c.Config.move_limit;
  check_float "delta" 0.0 c.Config.delta;
  check_float "online = offline" (Config.offline_limit c)
    (Config.online_limit c)

let config_augmentation () =
  let c = Config.make ~move_limit:2.0 ~delta:0.5 () in
  check_float "online limit" 3.0 (Config.online_limit c);
  check_float "offline limit" 2.0 (Config.offline_limit c)

let config_validation () =
  Alcotest.check_raises "D < 1" (Invalid_argument "Config.make: D must be >= 1")
    (fun () -> ignore (Config.make ~d_factor:0.5 ()));
  Alcotest.check_raises "m <= 0"
    (Invalid_argument "Config.make: m must be positive") (fun () ->
      ignore (Config.make ~move_limit:0.0 ()));
  Alcotest.check_raises "delta < 0"
    (Invalid_argument "Config.make: delta must be >= 0") (fun () ->
      ignore (Config.make ~delta:(-0.1) ()));
  Alcotest.check_raises "nan"
    (Invalid_argument "Config.make: non-finite parameter") (fun () ->
      ignore (Config.make ~d_factor:Float.nan ()))

(* --- Instance ------------------------------------------------------ *)

let instance_of_lists rows =
  Instance.make ~start:(Vec.zero 1)
    (Array.of_list
       (List.map (fun row -> Array.of_list (List.map Vec.make1 row)) rows))

let instance_basics () =
  let inst = instance_of_lists [ [ 1.0 ]; [ 2.0; 3.0 ]; [] ] in
  Alcotest.(check int) "length" 3 (Instance.length inst);
  Alcotest.(check int) "dim" 1 (Instance.dim inst);
  Alcotest.(check int) "requests" 3 (Instance.total_requests inst);
  Alcotest.(check (pair int int)) "bounds" (0, 2) (Instance.request_bounds inst)

let instance_dim_mismatch () =
  Alcotest.check_raises "bad round"
    (Invalid_argument
       "Instance.make: request in round 0 has dimension 2, expected 1")
    (fun () ->
      ignore (Instance.make ~start:(Vec.zero 1) [| [| Vec.make2 0.0 0.0 |] |]))

let instance_copies_input () =
  let round = [| Vec.make1 5.0 |] in
  let inst = Instance.make ~start:(Vec.zero 1) [| round |] in
  round.(0).(0) <- 99.0;
  check_float "insulated from mutation" 5.0
    inst.Instance.steps.(0).(0).(0)

let instance_single_trajectory () =
  let inst = instance_of_lists [ [ 1.0 ]; [ 2.0 ] ] in
  (match Instance.single_trajectory inst with
   | Some traj ->
     Alcotest.(check int) "length" 2 (Array.length traj);
     check_float "first" 1.0 traj.(0).(0)
   | None -> Alcotest.fail "expected single trajectory");
  let multi = instance_of_lists [ [ 1.0; 2.0 ] ] in
  Alcotest.(check bool) "multi has none" true
    (Instance.single_trajectory multi = None)

let instance_moving_client () =
  let slow = instance_of_lists [ [ 0.5 ]; [ 1.0 ]; [ 1.4 ] ] in
  Alcotest.(check bool) "slow agent ok" true
    (Instance.is_moving_client ~speed:0.5 slow);
  let fast = instance_of_lists [ [ 2.0 ] ] in
  Alcotest.(check bool) "fast agent rejected" false
    (Instance.is_moving_client ~speed:0.5 fast);
  let multi = instance_of_lists [ [ 0.1; 0.2 ] ] in
  Alcotest.(check bool) "multi-request rejected" false
    (Instance.is_moving_client ~speed:10.0 multi)

(* --- Cost ---------------------------------------------------------- *)

let cost_move_first () =
  let config = Config.make ~d_factor:3.0 () in
  let b =
    Cost.step config ~from:(Vec.make1 0.0) ~to_:(Vec.make1 1.0)
      [| Vec.make1 2.0; Vec.make1 0.0 |]
  in
  check_float "move" 3.0 b.Cost.move;
  (* Served at the new position 1: |1-2| + |1-0| = 2. *)
  check_float "service" 2.0 b.Cost.service;
  check_float "total" 5.0 (Cost.total b)

let cost_serve_first () =
  let config = Config.make ~d_factor:3.0 ~variant:Variant.Serve_first () in
  let b =
    Cost.step config ~from:(Vec.make1 0.0) ~to_:(Vec.make1 1.0)
      [| Vec.make1 2.0; Vec.make1 0.0 |]
  in
  check_float "move" 3.0 b.Cost.move;
  (* Served at the old position 0: |0-2| + |0-0| = 2. *)
  check_float "service" 2.0 b.Cost.service;
  (* Same numbers by coincidence of this example; distinguish with an
     asymmetric round. *)
  let b2 =
    Cost.step config ~from:(Vec.make1 0.0) ~to_:(Vec.make1 1.0)
      [| Vec.make1 1.0 |]
  in
  check_float "serve-first charges old position" 1.0 b2.Cost.service

let cost_trajectory_sums () =
  let config = Config.make ~d_factor:2.0 () in
  let inst = instance_of_lists [ [ 1.0 ]; [ 2.0 ] ] in
  let positions = [| Vec.make1 1.0; Vec.make1 2.0 |] in
  let b =
    Cost.trajectory config ~start:(Vec.zero 1) positions (Instance.pack inst)
  in
  (* Moves: 1 + 1 at weight 2 -> 4; service: 0 + 0. *)
  check_float "move" 4.0 b.Cost.move;
  check_float "service" 0.0 b.Cost.service

let cost_trajectory_length_mismatch () =
  let config = Config.make () in
  let inst = instance_of_lists [ [ 1.0 ] ] in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Cost.trajectory: 2 positions for 1 rounds") (fun () ->
      ignore
        (Cost.trajectory config ~start:(Vec.zero 1)
           [| Vec.make1 0.0; Vec.make1 0.0 |]
           (Instance.pack inst)))

let cost_feasible () =
  let start = Vec.zero 1 in
  Alcotest.(check bool) "ok" true
    (Cost.feasible ~limit:1.0 ~start [| Vec.make1 1.0; Vec.make1 1.5 |]);
  Alcotest.(check bool) "first step too far" false
    (Cost.feasible ~limit:1.0 ~start [| Vec.make1 1.5 |]);
  Alcotest.(check bool) "tolerance admits equality" true
    (Cost.feasible ~limit:1.0 ~start [| Vec.make1 1.0 |])

let cost_feasible_rejects_non_finite () =
  (* Regression: a NaN step distance never exceeds the slack, so garbage
     trajectories used to be accepted as feasible. *)
  let start = Vec.zero 1 in
  Alcotest.(check bool) "nan position" false
    (Cost.feasible ~limit:1.0 ~start [| Vec.make1 Float.nan |]);
  Alcotest.(check bool) "nan then sane" false
    (Cost.feasible ~limit:1.0 ~start
       [| Vec.make1 Float.nan; Vec.make1 0.5 |]);
  Alcotest.(check bool) "infinite position" false
    (Cost.feasible ~limit:1.0 ~start [| Vec.make1 Float.infinity |]);
  Alcotest.(check bool) "nan start" false
    (Cost.feasible ~limit:1.0 ~start:(Vec.make1 Float.nan)
       [| Vec.make1 0.0 |])

(* --- Algorithm ----------------------------------------------------- *)

let algorithm_clamps () =
  let teleport =
    Algorithm.of_policy ~name:"teleport" (fun _config ~server:_ _requests ->
        Vec.make1 100.0)
  in
  let config = Config.make ~move_limit:1.0 ~delta:0.5 () in
  let stepper = teleport.Algorithm.make config ~start:(Vec.zero 1) in
  let p1 = stepper [| Vec.make1 100.0 |] in
  check_float "clamped to online budget" 1.5 p1.(0);
  let p2 = stepper [| Vec.make1 100.0 |] in
  check_float "keeps moving" 3.0 p2.(0)

let algorithm_stay_put () =
  let config = Config.make () in
  let stepper = Algorithm.stay_put.Algorithm.make config ~start:(Vec.make1 5.0) in
  Alcotest.check vec "no move" (Vec.make1 5.0) (stepper [| Vec.make1 0.0 |])

(* --- Engine -------------------------------------------------------- *)

let engine_run_matches_manual () =
  (* Greedy on a simple 1-D chase: start 0, requests at 10 for 3 rounds,
     m = 1, D = 2, delta = 0.  Positions 1, 2, 3; service 9 + 8 + 7;
     movement 3 * 2. *)
  let config = Config.make ~d_factor:2.0 () in
  let inst = instance_of_lists [ [ 10.0 ]; [ 10.0 ]; [ 10.0 ] ] in
  let greedy =
    Algorithm.of_policy ~name:"g" (fun _config ~server:_ _reqs ->
        Vec.make1 10.0)
  in
  let run = Engine.run config greedy inst in
  check_float "total" 30.0 (Cost.total run.Engine.cost);
  check_float "move part" 6.0 run.Engine.cost.Cost.move;
  check_float "service part" 24.0 run.Engine.cost.Cost.service;
  Alcotest.check vec "final position" (Vec.make1 3.0)
    run.Engine.positions.(2)

let engine_total_cost_agrees () =
  let config = Config.make ~d_factor:2.0 () in
  let inst = instance_of_lists [ [ 4.0 ]; [ -3.0 ]; [ 1.0 ] ] in
  let alg = Mobile_server.Mtc.algorithm in
  let run = Engine.run config alg inst in
  check_float "agree" (Cost.total run.Engine.cost)
    (Engine.total_cost config alg inst)

let engine_iter_streams_rounds () =
  let config = Config.make () in
  let inst = instance_of_lists [ [ 1.0 ]; [ 2.0 ]; [ 3.0 ] ] in
  let seen = ref [] in
  Engine.iter config Algorithm.stay_put inst (fun r ->
      seen := r.Engine.round :: !seen);
  Alcotest.(check (list int)) "rounds in order" [ 0; 1; 2 ] (List.rev !seen)

let engine_replay_checks_budget () =
  let config = Config.make ~move_limit:1.0 ~delta:1.0 () in
  let inst = instance_of_lists [ [ 0.0 ] ] in
  (* delta does not license the offline trajectory to move 2. *)
  Alcotest.check_raises "offline budget enforced"
    (Invalid_argument "Engine.replay: trajectory exceeds the offline budget m")
    (fun () ->
      ignore (Engine.replay config ~start:(Vec.zero 1) [| Vec.make1 2.0 |] inst))

let engine_replay_prices () =
  let config = Config.make ~d_factor:2.0 () in
  let inst = instance_of_lists [ [ 1.0 ] ] in
  let b = Engine.replay config ~start:(Vec.zero 1) [| Vec.make1 1.0 |] inst in
  check_float "move cost" 2.0 b.Cost.move;
  check_float "service cost" 0.0 b.Cost.service

let engine_empty_round () =
  let config = Config.make () in
  let inst = Instance.make ~start:(Vec.zero 1) [| [||] |] in
  let run = Engine.run config Mobile_server.Mtc.algorithm inst in
  check_float "no cost" 0.0 (Cost.total run.Engine.cost);
  Alcotest.check vec "stays" (Vec.zero 1) run.Engine.positions.(0)

(* An algorithm that always proposes twice the online budget: every
   proposal must be clamped and counted. *)
let overstepper =
  {
    Algorithm.name = "overstepper";
    make =
      (fun ?rng:_ config ~start ->
        let limit = Config.online_limit config in
        let pos = ref (Vec.copy start) in
        fun _requests ->
          let target = Vec.copy !pos in
          target.(0) <- target.(0) +. (2.0 *. limit);
          pos := Vec.clamp_step ~from:!pos limit target;
          target);
  }

let engine_counts_clamped () =
  let config = Config.make ~delta:0.5 () in
  let inst = instance_of_lists [ [ 0.0 ]; [ 0.0 ]; [ 0.0 ]; [ 0.0 ] ] in
  let run = Engine.run config overstepper inst in
  Alcotest.(check int) "every round clamped" 4 run.Engine.clamped;
  let honest = Engine.run config Mobile_server.Mtc.algorithm inst in
  Alcotest.(check int) "mtc never clamped" 0 honest.Engine.clamped

let engine_step_record_reports_proposal () =
  let config = Config.make () in
  let inst = instance_of_lists [ [ 0.0 ] ] in
  let seen = ref [] in
  Engine.iter config overstepper inst (fun r -> seen := r :: !seen);
  match !seen with
  | [ r ] ->
    Alcotest.(check bool) "flagged" true r.Engine.clamped;
    check_float "raw proposal survives" 2.0 r.Engine.proposed.(0);
    check_float "position clamped to budget" 1.0 r.Engine.position.(0)
  | _ -> Alcotest.fail "expected exactly one record"

(* --- Instance stats -------------------------------------------------- *)

module Stats_m = Mobile_server.Instance_stats

let stats_hand_computed () =
  let inst =
    instance_of_lists [ [ 0.0; 2.0 ]; []; [ 4.0 ]; [ 6.0 ] ]
  in
  let s = Stats_m.compute inst in
  Alcotest.(check int) "rounds" 4 s.Stats_m.rounds;
  Alcotest.(check int) "empty" 1 s.Stats_m.empty_rounds;
  Alcotest.(check int) "requests" 4 s.Stats_m.total_requests;
  Alcotest.(check (pair int int)) "bounds" (0, 2)
    (s.Stats_m.r_min, s.Stats_m.r_max);
  (* Centroids: 1, 4, 6 -> drifts 3 and 2. *)
  check_float "mean drift" 2.5 s.Stats_m.mean_drift;
  check_float "max drift" 3.0 s.Stats_m.max_drift;
  (* Round 0 spread: mean distance from centroid 1 = 1; others 0. *)
  check_float "spread" (1.0 /. 3.0) s.Stats_m.spread;
  check_float "hull radius" 6.0 s.Stats_m.hull_radius

let stats_regimes () =
  let slow = instance_of_lists [ [ 0.5 ]; [ 1.0 ] ] in
  let fast = instance_of_lists [ [ 0.5 ]; [ 5.0 ] ] in
  let contains ~needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec scan i =
      i + n <= h && (String.sub haystack i n = needle || scan (i + 1))
    in
    n = 0 || scan 0
  in
  let regime inst =
    Stats_m.regime ~move_limit:1.0 (Stats_m.compute inst)
  in
  Alcotest.(check bool) "slow agent -> Theorem 10" true
    (contains ~needle:"Theorem 10" (regime slow));
  Alcotest.(check bool) "fast agent -> Theorem 8" true
    (contains ~needle:"Theorem 8" (regime fast));
  let varying = instance_of_lists [ [ 0.0 ]; [ 0.1; 0.2 ] ] in
  Alcotest.(check bool) "varying counts mention Rmax/Rmin" true
    (contains ~needle:"Rmax/Rmin" (regime varying));
  let empty = Instance.make ~start:(Vec.zero 1) [| [||] |] in
  Alcotest.(check string) "empty" "empty instance" (regime empty)

(* --- Session -------------------------------------------------------- *)

let session_matches_run () =
  let config = Config.make ~d_factor:3.0 ~delta:0.25 () in
  let rng = Prng.Stream.named ~name:"session-test" ~seed:2 in
  let inst = Workloads.Clusters.generate ~dim:2 ~t:60 rng in
  let batch = Engine.run config Mobile_server.Mtc.algorithm inst in
  let session =
    Engine.Session.create config Mobile_server.Mtc.algorithm
      ~start:inst.Instance.start
  in
  Array.iteri
    (fun t requests ->
      let record = Engine.Session.step session requests in
      Alcotest.(check int) "round index" t record.Engine.round;
      Alcotest.check vec "same position" batch.Engine.positions.(t)
        record.Engine.position)
    inst.Instance.steps;
  check_float "same total cost"
    (Cost.total batch.Engine.cost)
    (Cost.total (Engine.Session.cost session));
  Alcotest.(check int) "round count" 60 (Engine.Session.rounds session)

let session_counts_clamped () =
  let config = Config.make () in
  let session =
    Engine.Session.create config overstepper ~start:(Vec.zero 1)
  in
  ignore (Engine.Session.step session [| Vec.make1 0.0 |]);
  ignore (Engine.Session.step session [| Vec.make1 0.0 |]);
  Alcotest.(check int) "both steps clamped" 2
    (Engine.Session.clamped_count session);
  let honest =
    Engine.Session.create config Mobile_server.Mtc.algorithm
      ~start:(Vec.zero 1)
  in
  ignore (Engine.Session.step honest [| Vec.make1 0.5 |]);
  Alcotest.(check int) "honest step not clamped" 0
    (Engine.Session.clamped_count honest)

let session_validates_dimension () =
  let config = Config.make () in
  let session =
    Engine.Session.create config Mobile_server.Mtc.algorithm
      ~start:(Vec.zero 2)
  in
  Alcotest.check_raises "bad request"
    (Invalid_argument "Engine.Session.step: request dimension mismatch")
    (fun () -> ignore (Engine.Session.step session [| Vec.make1 0.0 |]))

let session_rejects_before_mutating () =
  (* Regression: validation must run before the stateful stepper, so a
     rejected round is not half applied — the session stays bit-equal
     to one that never saw the bad round and keeps stepping in lockstep
     with a fresh replay. *)
  let config = Config.make ~delta:0.5 () in
  let fresh () =
    Engine.Session.create config Mobile_server.Mtc.algorithm
      ~start:(Vec.zero 1)
  in
  let session = fresh () in
  ignore (Engine.Session.step session [| Vec.make1 2.0 |]);
  let cost0 = Cost.total (Engine.Session.cost session) in
  let pos0 = (Engine.Session.position session).(0) in
  Alcotest.check_raises "non-finite request"
    (Invalid_argument "Engine.Session.step: non-finite request coordinate")
    (fun () ->
      ignore
        (Engine.Session.step session [| Vec.make1 1.0; Vec.make1 Float.nan |]));
  Alcotest.(check int) "round not counted" 1 (Engine.Session.rounds session);
  check_float "cost unchanged" cost0 (Cost.total (Engine.Session.cost session));
  check_float "position unchanged" pos0 (Engine.Session.position session).(0);
  (* The survivor must keep matching a session that never saw the bad
     round — i.e. the rejected step left no hidden algorithm state. *)
  let witness = fresh () in
  ignore (Engine.Session.step witness [| Vec.make1 2.0 |]);
  List.iter
    (fun x ->
      let a = Engine.Session.step session [| Vec.make1 x |] in
      let b = Engine.Session.step witness [| Vec.make1 x |] in
      check_float (Printf.sprintf "lockstep at %g" x) b.Engine.position.(0)
        a.Engine.position.(0))
    [ 2.5; -1.0; 0.25 ]

let session_position_isolated () =
  let config = Config.make () in
  let session =
    Engine.Session.create config Algorithm.stay_put ~start:(Vec.make1 1.0)
  in
  let p = Engine.Session.position session in
  p.(0) <- 99.0;
  check_float "caller cannot corrupt the session" 1.0
    (Engine.Session.position session).(0)

(* --- QCheck: engine invariants ------------------------------------- *)

let small_instance_gen =
  (* Random small 1-D instances. *)
  QCheck.Gen.(
    let coord = float_range (-20.0) 20.0 in
    let round = list_size (int_range 0 4) coord in
    list_size (int_range 1 12) round
    >|= fun rows ->
    Instance.make ~start:(Vec.zero 1)
      (Array.of_list
         (List.map
            (fun row -> Array.of_list (List.map Vec.make1 row))
            rows)))

let arbitrary_instance =
  QCheck.make ~print:(fun i -> Format.asprintf "%a" Instance.pp i)
    small_instance_gen

let qcheck_engine_feasibility =
  QCheck.Test.make ~count:100 ~name:"every run respects the online budget"
    arbitrary_instance
    (fun inst ->
      let config = Config.make ~move_limit:0.7 ~delta:0.3 () in
      let run = Engine.run config Mobile_server.Mtc.algorithm inst in
      Cost.feasible ~limit:(Config.online_limit config)
        ~start:inst.Instance.start run.Engine.positions)

let qcheck_cost_nonnegative =
  QCheck.Test.make ~count:100 ~name:"costs are non-negative"
    arbitrary_instance
    (fun inst ->
      let config = Config.make ~d_factor:3.0 () in
      Engine.total_cost config Mobile_server.Mtc.algorithm inst >= 0.0)

let qcheck_variant_same_movement =
  QCheck.Test.make ~count:100
    ~name:"serve-first changes only the service charge for stay-put"
    arbitrary_instance
    (fun inst ->
      (* For an algorithm that never moves, both variants charge the
         same total (service at the same fixed point, zero movement). *)
      let mk variant = Config.make ~variant () in
      let a =
        Engine.total_cost (mk Variant.Move_first) Algorithm.stay_put inst
      in
      let b =
        Engine.total_cost (mk Variant.Serve_first) Algorithm.stay_put inst
      in
      Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 a)

(* Every engine entry point plays the same rounds: records from [iter],
   [run_stream ~trace] and [Session.step] agree field for field, and
   the totals of [run], [total_cost], [total_cost_packed] and
   [run_stream] agree with them, as does [Cost.trajectory] pricing
   [run]'s positions on the packed instance — all bitwise, on random
   instances with empty rounds, under both variants, for an honest and
   a clamped algorithm. *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_vec a b =
  Array.length a = Array.length b && Array.for_all2 same_bits a b

let same_record (a : Engine.step_record) (b : Engine.step_record) =
  a.Engine.round = b.Engine.round
  && same_vec a.Engine.position b.Engine.position
  && same_vec a.Engine.proposed b.Engine.proposed
  && Bool.equal a.Engine.clamped b.Engine.clamped
  && same_bits a.Engine.cost.Cost.move b.Engine.cost.Cost.move
  && same_bits a.Engine.cost.Cost.service b.Engine.cost.Cost.service

let same_cost (a : Cost.breakdown) (b : Cost.breakdown) =
  same_bits a.Cost.move b.Cost.move && same_bits a.Cost.service b.Cost.service

let entry_point_instance ~seed ~dim ~t =
  let rng = Prng.Stream.named ~name:"engine-entry-points" ~seed in
  let point () =
    Array.init dim (fun _ -> Prng.Dist.uniform rng ~lo:(-4.0) ~hi:4.0)
  in
  let start = point () in
  Instance.make ~start
    (Array.init t (fun _ ->
         Array.init (Prng.Xoshiro.next_below rng 4) (fun _ -> point ())))

let qcheck_engine_entry_points_agree =
  QCheck.Test.make ~count:200 ~name:"engine entry points agree bitwise"
    QCheck.(
      quad (int_range 0 100_000) (int_range 1 3) (int_range 0 14)
        (pair bool bool))
    (fun (seed, dim, t, (serve_first, clamping)) ->
      let inst = entry_point_instance ~seed ~dim ~t in
      let variant =
        if serve_first then Variant.Serve_first else Variant.Move_first
      in
      let config =
        Config.make ~d_factor:1.5 ~move_limit:0.6 ~delta:0.5 ~variant ()
      in
      let alg = if clamping then overstepper else Mobile_server.Mtc.algorithm in
      let iter_records =
        let acc = ref [] in
        Engine.iter config alg inst (fun r -> acc := r :: !acc);
        List.rev !acc
      in
      let stream_records = ref [] in
      let summary =
        Engine.run_stream config alg ~start:inst.Instance.start ~rounds:t
          ~trace:(fun r -> stream_records := r :: !stream_records)
          (fun r -> inst.Instance.steps.(r))
      in
      let stream_records = List.rev !stream_records in
      let session = Engine.Session.create config alg ~start:inst.Instance.start in
      let session_records =
        Array.to_list (Array.map (Engine.Session.step session) inst.Instance.steps)
      in
      let run = Engine.run config alg inst in
      let packed = Instance.pack inst in
      let priced =
        Cost.trajectory config ~start:inst.Instance.start run.Engine.positions
          packed
      in
      let total = Engine.total_cost config alg inst in
      let total_packed = Engine.total_cost_packed config alg packed in
      let record_cost, record_clamped =
        List.fold_left
          (fun (c, n) (r : Engine.step_record) ->
            (Cost.add c r.Engine.cost, if r.Engine.clamped then n + 1 else n))
          (Cost.zero, 0) iter_records
      in
      let final =
        if t = 0 then inst.Instance.start else run.Engine.positions.(t - 1)
      in
      List.length iter_records = t
      && List.for_all2 same_record iter_records stream_records
      && List.for_all2 same_record iter_records session_records
      && List.for_all2
           (fun (r : Engine.step_record) p -> same_vec r.Engine.position p)
           iter_records (Array.to_list run.Engine.positions)
      && same_cost record_cost run.Engine.cost
      && same_cost run.Engine.cost priced
      && same_cost run.Engine.cost summary.Engine.s_cost
      && same_cost run.Engine.cost (Engine.Session.cost session)
      && same_bits total (Cost.total run.Engine.cost)
      && same_bits total_packed total
      && record_clamped = run.Engine.clamped
      && run.Engine.clamped = summary.Engine.s_clamped
      && run.Engine.clamped = Engine.Session.clamped_count session
      && summary.Engine.s_rounds = t
      && Engine.Session.rounds session = t
      && same_vec final summary.Engine.s_final
      && same_vec final (Engine.Session.position session))

let () =
  Alcotest.run "core"
    [
      ( "variant",
        [
          Alcotest.test_case "round trip" `Quick variant_round_trip;
          Alcotest.test_case "aliases" `Quick variant_aliases;
        ] );
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick config_defaults;
          Alcotest.test_case "augmentation" `Quick config_augmentation;
          Alcotest.test_case "validation" `Quick config_validation;
        ] );
      ( "instance",
        [
          Alcotest.test_case "basics" `Quick instance_basics;
          Alcotest.test_case "dim mismatch" `Quick instance_dim_mismatch;
          Alcotest.test_case "copies input" `Quick instance_copies_input;
          Alcotest.test_case "single trajectory" `Quick instance_single_trajectory;
          Alcotest.test_case "moving client" `Quick instance_moving_client;
        ] );
      ( "cost",
        [
          Alcotest.test_case "move-first" `Quick cost_move_first;
          Alcotest.test_case "serve-first" `Quick cost_serve_first;
          Alcotest.test_case "trajectory" `Quick cost_trajectory_sums;
          Alcotest.test_case "length mismatch" `Quick cost_trajectory_length_mismatch;
          Alcotest.test_case "feasible" `Quick cost_feasible;
          Alcotest.test_case "feasible rejects non-finite" `Quick
            cost_feasible_rejects_non_finite;
        ] );
      ( "algorithm",
        [
          Alcotest.test_case "clamps" `Quick algorithm_clamps;
          Alcotest.test_case "stay put" `Quick algorithm_stay_put;
        ] );
      ( "engine",
        [
          Alcotest.test_case "run matches manual" `Quick engine_run_matches_manual;
          Alcotest.test_case "total cost agrees" `Quick engine_total_cost_agrees;
          Alcotest.test_case "iter streams" `Quick engine_iter_streams_rounds;
          Alcotest.test_case "replay budget" `Quick engine_replay_checks_budget;
          Alcotest.test_case "replay prices" `Quick engine_replay_prices;
          Alcotest.test_case "empty round" `Quick engine_empty_round;
          Alcotest.test_case "counts clamped" `Quick engine_counts_clamped;
          Alcotest.test_case "step record proposal" `Quick
            engine_step_record_reports_proposal;
        ] );
      ( "instance-stats",
        [
          Alcotest.test_case "hand computed" `Quick stats_hand_computed;
          Alcotest.test_case "regimes" `Quick stats_regimes;
        ] );
      ( "session",
        [
          Alcotest.test_case "matches batch run" `Quick session_matches_run;
          Alcotest.test_case "counts clamped" `Quick session_counts_clamped;
          Alcotest.test_case "validates dimension" `Quick
            session_validates_dimension;
          Alcotest.test_case "rejects before mutating" `Quick
            session_rejects_before_mutating;
          Alcotest.test_case "position isolated" `Quick session_position_isolated;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_engine_feasibility;
            qcheck_cost_nonnegative;
            qcheck_variant_same_movement;
            qcheck_engine_entry_points_agree;
          ] );
    ]
