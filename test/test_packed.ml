(* Differential tests for the struct-of-arrays instance layer.

   [Instance.pack] must be lossless bit for bit, the [Points] reduction
   kernels must reproduce their boxed [Vec]/[Cost] counterparts
   exactly, and every engine and pricing entry point that reads the
   packed view must be bit-identical to the boxed one on the same
   instance.  The solvers read only the packed view; their goldens
   (line_dp_v1.txt, convex_v1.txt in test_offline) pin their bits. *)

module Vec = Geometry.Vec
module Points = Geometry.Points
module MS = Mobile_server
module Config = MS.Config
module Instance = MS.Instance
module Cost = MS.Cost
module Engine = MS.Engine

let bits = Int64.bits_of_float

let float_bit_equal a b = Int64.equal (bits a) (bits b)

let vec_bit_equal u v =
  Vec.dim u = Vec.dim v
  && Array.for_all2 (fun a b -> float_bit_equal a b) u v

let check_float_bits what a b =
  if not (float_bit_equal a b) then
    Alcotest.failf "%s: %h <> %h" what a b

(* --- generators ----------------------------------------------------- *)

let coord = QCheck.float_range (-50.0) 50.0

let vec_gen d =
  QCheck.map Array.of_list QCheck.(list_of_size (Gen.return d) coord)

(* Random instance: dimension in {1, 2}, up to 8 rounds, up to 4
   requests per round (possibly-empty rounds included). *)
let instance_gen d =
  QCheck.map
    (fun (start, rounds) ->
      Instance.make ~start
        (Array.of_list (List.map Array.of_list rounds)))
    QCheck.(
      pair (vec_gen d)
        (list_of_size (Gen.int_range 1 8)
           (list_of_size (Gen.int_range 0 4) (vec_gen d))))

let instance_bit_equal a b =
  vec_bit_equal a.Instance.start b.Instance.start
  && Array.length a.Instance.steps = Array.length b.Instance.steps
  && Array.for_all2
       (fun ra rb ->
         Array.length ra = Array.length rb && Array.for_all2 vec_bit_equal ra rb)
       a.Instance.steps b.Instance.steps

(* --- pack/unpack round trip ----------------------------------------- *)

(* Point [i] of [pts] as a fresh boxed vector of dimension [dim]. *)
let point ~dim pts i =
  let v = Vec.zero dim in
  Points.get_into pts i v;
  v

(* The boxed view rebuilt from the packed accessors alone. *)
let unpack p =
  let dim = Instance.Packed.dim p in
  Instance.make ~start:(Instance.Packed.start p)
    (Array.init (Instance.Packed.length p) (fun t ->
         let base = Instance.Packed.round_start p t in
         Array.init (Instance.Packed.round_length p t) (fun i ->
             point ~dim (Instance.Packed.points p) (base + i))))

let qcheck_roundtrip d =
  QCheck.Test.make ~count:200
    ~name:(Printf.sprintf "unpack (pack inst) = inst exactly (%d-D)" d)
    (instance_gen d)
    (fun inst -> instance_bit_equal inst (unpack (Instance.pack inst)))

let packed_accessors () =
  let inst =
    Instance.make ~start:[| 1.0; 2.0 |]
      [|
        [| [| 0.0; 0.0 |]; [| 3.0; -1.0 |] |];
        [||];
        [| [| 5.0; 5.0 |] |];
      |]
  in
  let p = Instance.pack inst in
  Alcotest.(check int) "dim" 2 (Instance.Packed.dim p);
  Alcotest.(check int) "length" 3 (Instance.Packed.length p);
  Alcotest.(check int) "total" 3 (Instance.Packed.total_requests p);
  Alcotest.(check (list int)) "round starts" [ 0; 2; 2; 3 ]
    (List.init 4 (Instance.Packed.round_start p));
  Alcotest.(check (list int)) "round lengths" [ 2; 0; 1 ]
    (List.init 3 (Instance.Packed.round_length p));
  let pt = point ~dim:2 (Instance.Packed.points p) 2 in
  if not (vec_bit_equal pt [| 5.0; 5.0 |]) then Alcotest.fail "point 2"

let serialize_is_content_addressed () =
  let mk shift =
    Instance.make ~start:[| 0.0 |]
      [| [| [| 1.0 +. shift |] |]; [| [| 2.0 |]; [| 3.0 |] |] |]
  in
  let s0 = Instance.Packed.serialize (Instance.pack (mk 0.0)) in
  let s0' = Instance.Packed.serialize (Instance.pack (mk 0.0)) in
  let s1 = Instance.Packed.serialize (Instance.pack (mk 1e-12)) in
  Alcotest.(check bool) "equal instances serialize equally" true
    (String.equal s0 s0');
  Alcotest.(check bool) "one-ulp-ish change changes the bytes" false
    (String.equal s0 s1)

(* --- Points kernels vs boxed references ----------------------------- *)

let qcheck_points_kernels =
  QCheck.Test.make ~count:300 ~name:"Points kernels match Vec/Cost bitwise"
    QCheck.(
      pair (vec_gen 3)
        (list_of_size (Gen.int_range 1 6) (vec_gen 3)))
    (fun (v, pts_list) ->
      let vs = Array.of_list pts_list in
      let n = Array.length vs in
      let pts = Points.create ~dim:3 n in
      Array.iteri (Points.set pts) vs;
      let ok_dist = ref true in
      for i = 0 to n - 1 do
        if not (float_bit_equal (Points.dist pts i v) (Vec.dist v vs.(i)))
        then ok_dist := false
      done;
      let ok_sum =
        float_bit_equal
          (Points.sum_dist pts ~lo:0 ~hi:n v)
          (Cost.service_cost v vs)
      in
      let cvec = Array.make 3 0.0 in
      Points.centroid_into pts ~lo:0 ~hi:n cvec;
      let ok_centroid = vec_bit_equal cvec (Vec.centroid vs) in
      !ok_dist && ok_sum && ok_centroid)

let qcheck_clamp_into =
  QCheck.Test.make ~count:300
    ~name:"clamp_step_into = clamp_step (bitwise, incl. aliasing)"
    QCheck.(triple (vec_gen 2) (vec_gen 2) (QCheck.float_range 0.0 10.0))
    (fun (from, target, limit) ->
      let expected = Vec.clamp_step ~from limit target in
      let dst = Vec.zero 2 in
      Vec.clamp_step_into dst ~from limit target;
      let aliased = Vec.copy target in
      Vec.clamp_step_into aliased ~from limit aliased;
      vec_bit_equal dst expected && vec_bit_equal aliased expected)

(* --- engine: packed vs boxed ---------------------------------------- *)

let config_gen =
  QCheck.map
    (fun (d, serve_first) ->
      let variant =
        if serve_first then MS.Variant.Serve_first else MS.Variant.Move_first
      in
      Config.make ~d_factor:d ~move_limit:1.0 ~variant ())
    QCheck.(pair (float_range 1.0 4.0) bool)

let qcheck_engine_packed =
  QCheck.Test.make ~count:60 ~name:"Engine packed run = boxed run (bitwise)"
    QCheck.(pair config_gen (instance_gen 2))
    (fun (config, inst) ->
      let alg = MS.Mtc.algorithm in
      float_bit_equal
        (Engine.total_cost config alg inst)
        (Engine.total_cost_packed config alg (Instance.pack inst)))

(* [Cost.trajectory] reads the packed view; the reference is the
   engine's round pricing, [Cost.step] on each boxed round, added in
   round order from [Cost.zero]. *)
let qcheck_trajectory_packed =
  QCheck.Test.make ~count:100 ~name:"Cost.trajectory = Cost.step fold"
    QCheck.(pair config_gen (instance_gen 2))
    (fun (config, inst) ->
      (* Any trajectory will do; use the MtC run. *)
      let positions =
        (Engine.run config MS.Mtc.algorithm inst).Engine.positions
      in
      let start = inst.Instance.start in
      let boxed = ref Cost.zero in
      Array.iteri
        (fun t round ->
          let from = if t = 0 then start else positions.(t - 1) in
          boxed :=
            Cost.add !boxed (Cost.step config ~from ~to_:positions.(t) round))
        inst.Instance.steps;
      let packed =
        Cost.trajectory config ~start positions (Instance.pack inst)
      in
      float_bit_equal !boxed.Cost.move packed.Cost.move
      && float_bit_equal !boxed.Cost.service packed.Cost.service)

(* --- OPT cache: hits are bitwise equal to misses --------------------- *)

let line_inst rng ~t =
  Workloads.Clusters.generate ~r_min:2 ~r_max:2 ~arena:8.0 ~dim:1 ~t rng

let cache_hit_equals_miss () =
  Offline.Opt_cache.set_disk_dir None;
  let config = Config.make ~d_factor:3.0 ~move_limit:1.0 () in
  let rng = Prng.Stream.named ~name:"packed-cache" ~seed:5 in
  let p1 = Instance.pack (line_inst rng ~t:24) in
  Offline.Opt_cache.clear ();
  let direct = Offline.Line_dp.optimum_packed config p1 in
  let miss = Offline.Opt_cache.line_dp config p1 in
  let hit = Offline.Opt_cache.line_dp config p1 in
  check_float_bits "line-dp miss = direct" direct miss;
  check_float_bits "line-dp hit = direct" direct hit;
  check_float_bits "optimum is the line DP in 1-D" direct
    (Offline.Opt_cache.optimum ~max_iter:30 config p1);
  let p2 =
    Instance.pack (Workloads.Clusters.generate ~dim:2 ~t:10 rng)
  in
  let direct = Offline.Convex_opt.optimum_packed ~max_iter:30 config p2 in
  let miss = Offline.Opt_cache.convex ~max_iter:30 config p2 in
  let hit = Offline.Opt_cache.convex ~max_iter:30 config p2 in
  check_float_bits "convex miss = direct" direct miss;
  check_float_bits "convex hit = direct" direct hit;
  check_float_bits "optimum is the convex solver in 2-D" direct
    (Offline.Opt_cache.optimum ~max_iter:30 config p2)

(* The key deliberately excludes [delta]: it shapes online runs only,
   so sweeping it must keep hitting the entry the base config
   created. *)
let cache_key_ignores_online_knobs () =
  Offline.Opt_cache.set_disk_dir None;
  let rng = Prng.Stream.named ~name:"packed-cache-knobs" ~seed:6 in
  let p = Instance.pack (line_inst rng ~t:16) in
  let c0 = Config.make ~d_factor:2.0 ~move_limit:1.0 ~delta:0.0 () in
  let c1 = Config.make ~d_factor:2.0 ~move_limit:1.0 ~delta:0.7 () in
  Offline.Opt_cache.clear ();
  let a = Offline.Opt_cache.line_dp c0 p in
  let hits_before = (Offline.Opt_cache.stats ()).Offline.Opt_cache.hits in
  let b = Offline.Opt_cache.line_dp c1 p in
  let hits_after = (Offline.Opt_cache.stats ()).Offline.Opt_cache.hits in
  check_float_bits "same optimum under online-only knob changes" a b;
  Alcotest.(check int) "second call was a cache hit" (hits_before + 1)
    hits_after

(* Cached, warm-cached, cache-disabled, and jobs=1 vs jobs=2 sweeps all
   produce bitwise-identical ratio samples. *)
let cache_sweep_jobs_identity () =
  Offline.Opt_cache.set_disk_dir None;
  let config = Config.make ~d_factor:4.0 ~delta:0.5 () in
  let sweep () =
    Experiments.Ratio.vs_opt ~seeds:4 ~base_seed:3
      ~name:"packed-cache-sweep" config MS.Mtc.algorithm
      (fun rng -> line_inst rng ~t:24)
  in
  let saved = Exec.jobs () in
  Exec.set_jobs 1;
  Offline.Opt_cache.clear ();
  let cold1 = sweep () in
  let warm1 = sweep () in
  Offline.Opt_cache.set_enabled false;
  let uncached = sweep () in
  Offline.Opt_cache.set_enabled true;
  Exec.set_jobs 2;
  Offline.Opt_cache.clear ();
  let cold2 = sweep () in
  let warm2 = sweep () in
  Exec.set_jobs saved;
  let check name a b =
    if
      not
        (Array.for_all2 float_bit_equal a.Experiments.Ratio.ratios
           b.Experiments.Ratio.ratios)
    then Alcotest.failf "%s: ratio samples differ" name
  in
  check "warm = cold (jobs 1)" cold1 warm1;
  check "uncached = cached" cold1 uncached;
  check "jobs 2 cold = jobs 1" cold1 cold2;
  check "jobs 2 warm = jobs 1" cold1 warm2

let cache_disk_roundtrip () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "msp-opt-cache-test"
  in
  let saved = Offline.Opt_cache.disk_dir () in
  Offline.Opt_cache.set_disk_dir (Some dir);
  let config = Config.make ~d_factor:2.0 () in
  let rng = Prng.Stream.named ~name:"packed-cache-disk" ~seed:9 in
  let p = Instance.pack (line_inst rng ~t:12) in
  Offline.Opt_cache.clear ();
  let solved = Offline.Opt_cache.line_dp config p in
  Offline.Opt_cache.clear ();
  let before = (Offline.Opt_cache.stats ()).Offline.Opt_cache.disk_hits in
  let from_disk = Offline.Opt_cache.line_dp config p in
  let after = (Offline.Opt_cache.stats ()).Offline.Opt_cache.disk_hits in
  Offline.Opt_cache.set_disk_dir saved;
  check_float_bits "disk entry round-trips the exact bits" solved from_disk;
  Alcotest.(check bool) "disk hit recorded" true (after > before)

let cache_corrupt_entry_is_miss () =
  (* Regression: a corrupt, truncated or unreadable disk entry must be
     a miss — the optimum recomputes to the exact bits, the bad file is
     quarantined (removed), and nothing raises or poisons the LRU. *)
  let module Faults = Offline.Opt_cache.Faults in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "msp-opt-cache-corrupt"
  in
  let saved = Offline.Opt_cache.disk_dir () in
  Offline.Opt_cache.set_disk_dir (Some dir);
  Fun.protect
    ~finally:(fun () ->
      Faults.clear ();
      Offline.Opt_cache.set_disk_dir saved)
    (fun () ->
      let config = Config.make ~d_factor:2.0 () in
      let rng = Prng.Stream.named ~name:"packed-cache-corrupt" ~seed:17 in
      let p = Instance.pack (line_inst rng ~t:10) in
      Offline.Opt_cache.clear ();
      let solved = Offline.Opt_cache.line_dp config p in
      List.iter
        (fun (label, corruption, expect_quarantine) ->
          Offline.Opt_cache.clear ();
          let q0 = Faults.quarantined () in
          Faults.corrupt_next_read corruption;
          let recomputed = Offline.Opt_cache.line_dp config p in
          check_float_bits
            (Printf.sprintf "%s: degraded answer equals the solve" label)
            solved recomputed;
          let quarantined = Faults.quarantined () - q0 in
          Alcotest.(check bool)
            (Printf.sprintf "%s: quarantine" label)
            expect_quarantine (quarantined > 0);
          (* The quarantined entry is gone: the next cold lookup misses
             the disk cleanly and re-persists the value. *)
          Offline.Opt_cache.clear ();
          check_float_bits
            (Printf.sprintf "%s: cache self-heals" label)
            solved
            (Offline.Opt_cache.line_dp config p))
        [
          ("sys-error", Faults.Sys_err, false);
          ("truncate", Faults.Truncate, true);
          ("garbage", Faults.Garbage, true);
        ])

let cache_write_fault_degrades () =
  (* Regression: a failed disk write is the documented degraded mode —
     the value is served from memory, and a later cold lookup simply
     recomputes the same bits. *)
  let module Faults = Offline.Opt_cache.Faults in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "msp-opt-cache-wfail"
  in
  let saved = Offline.Opt_cache.disk_dir () in
  Offline.Opt_cache.set_disk_dir (Some dir);
  Fun.protect
    ~finally:(fun () ->
      Faults.clear ();
      Offline.Opt_cache.set_disk_dir saved)
    (fun () ->
      let config = Config.make ~d_factor:2.0 () in
      let rng = Prng.Stream.named ~name:"packed-cache-wfail" ~seed:23 in
      let p = Instance.pack (line_inst rng ~t:10) in
      Offline.Opt_cache.clear ();
      Faults.fail_next_write ();
      let solved = Offline.Opt_cache.line_dp config p in
      let served = Offline.Opt_cache.line_dp config p in
      check_float_bits "memory still serves the value" solved served;
      Offline.Opt_cache.clear ();
      let recomputed = Offline.Opt_cache.line_dp config p in
      check_float_bits "cold lookup recomputes the bits" solved recomputed)

let q = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "packed"
    [
      ( "roundtrip",
        [
          q (qcheck_roundtrip 1);
          q (qcheck_roundtrip 2);
          Alcotest.test_case "accessors" `Quick packed_accessors;
          Alcotest.test_case "serialize content-addressed" `Quick
            serialize_is_content_addressed;
        ] );
      ( "kernels",
        [ q qcheck_points_kernels; q qcheck_clamp_into ] );
      ( "engine",
        [ q qcheck_engine_packed; q qcheck_trajectory_packed ] );
      ( "opt-cache",
        [
          Alcotest.test_case "hit = miss = direct" `Quick
            cache_hit_equals_miss;
          Alcotest.test_case "key ignores online-only knobs" `Quick
            cache_key_ignores_online_knobs;
          Alcotest.test_case "sweeps: cached/uncached, jobs 1/2" `Quick
            cache_sweep_jobs_identity;
          Alcotest.test_case "disk store round-trips bits" `Quick
            cache_disk_roundtrip;
          Alcotest.test_case "corrupt entry = miss + quarantine" `Quick
            cache_corrupt_entry_is_miss;
          Alcotest.test_case "write fault degrades" `Quick
            cache_write_fault_degrades;
        ] );
    ]
