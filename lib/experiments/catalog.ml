module Vec = Geometry.Vec
module Config = Mobile_server.Config
module Variant = Mobile_server.Variant
module Instance = Mobile_server.Instance
module Engine = Mobile_server.Engine
module Mtc = Mobile_server.Mtc
module Algorithm = Mobile_server.Algorithm
module Potential = Mobile_server.Potential
module Construction = Adversary.Construction

type result = {
  id : string;
  title : string;
  prediction : string;
  tables : (string * Tables.t) list;
  findings : string list;
}

let mtc = Mtc.algorithm

let fmt = Printf.sprintf

(* ------------------------------------------------------------------ *)
(* E1: Theorem 1 — without augmentation the ratio grows like √(T/D).  *)

let e1 ~seed ~quick =
  let d_values = if quick then [ 4.0 ] else [ 1.0; 4.0; 16.0 ] in
  let ts = if quick then [ 64.; 256. ] else [ 16.; 64.; 256.; 1024.; 4096. ] in
  let seeds = if quick then 4 else 16 in
  let tables, slopes =
    List.fold_left
      (fun (tables, slopes) d ->
        let config = Config.make ~d_factor:d ~move_limit:1.0 ~delta:0.0 () in
        let sweep =
          Sweep.run ~knob:"T" ~xs:ts
            ~predicted:(fun t ->
              Offline.Closed_form.thm1_predicted_ratio ~d
                ~t:(int_of_float t))
            (fun t ->
              Ratio.vs_construction ~seeds ~base_seed:seed
                ~name:(fmt "e1-D%g-T%g" d t) config mtc
                (fun rng ->
                  Adversary.Thm1.generate ~dim:1 ~t:(int_of_float t) config
                    rng))
        in
        ( (fmt "MtC vs Thm-1 adversary, D = %g (line, delta = 0)" d,
           Sweep.to_table sweep)
          :: tables,
          fmt "D = %g: %s (paper predicts 0.5)" d (Sweep.slope_line sweep)
          :: slopes ))
      ([], []) d_values
  in
  {
    id = "e1";
    title = "Theorem 1: no competitive online algorithm without augmentation";
    prediction = "expected ratio = Omega(sqrt(T/D)); log-log slope vs T ~ 0.5";
    tables = List.rev tables;
    findings = List.rev slopes;
  }

(* ------------------------------------------------------------------ *)
(* E2: Theorem 2 — augmented lower bound Omega((1/delta)·Rmax/Rmin).  *)

let e2 ~seed ~quick =
  let seeds = if quick then 4 else 16 in
  let cycles = if quick then 2 else 3 in
  let d = 2.0 in
  (* Sweep 1: delta at fixed Rmax = Rmin. *)
  let deltas =
    if quick then [ 1.0; 0.25 ] else [ 1.0; 0.5; 0.25; 0.125; 0.0625 ]
  in
  let delta_sweep =
    Sweep.run ~knob:"delta" ~xs:deltas
      ~predicted:(fun delta ->
        Offline.Closed_form.thm2_predicted_ratio ~delta ~r_min:2 ~r_max:2)
      (fun delta ->
        let config = Config.make ~d_factor:d ~move_limit:1.0 ~delta () in
        Ratio.vs_construction ~seeds ~base_seed:seed
          ~name:(fmt "e2-delta%g" delta) config mtc
          (fun rng ->
            Adversary.Thm2.generate ~cycles ~dim:1 ~r_min:2 ~r_max:2 config
              rng))
  in
  (* Sweep 2: Rmax/Rmin at fixed delta. *)
  let ratios = if quick then [ 1.; 4. ] else [ 1.; 2.; 4.; 8. ] in
  let delta = 0.25 in
  let config = Config.make ~d_factor:d ~move_limit:1.0 ~delta () in
  let rmax_sweep =
    Sweep.run ~knob:"Rmax/Rmin" ~xs:ratios
      ~predicted:(fun x ->
        Offline.Closed_form.thm2_predicted_ratio ~delta ~r_min:1
          ~r_max:(int_of_float x))
      (fun x ->
        Ratio.vs_construction ~seeds ~base_seed:seed ~name:(fmt "e2-rr%g" x)
          config mtc
          (fun rng ->
            Adversary.Thm2.generate ~cycles ~dim:1 ~r_min:1
              ~r_max:(int_of_float x) config rng))
  in
  {
    id = "e2";
    title = "Theorem 2: augmented lower bound";
    prediction =
      "expected ratio = Omega((1/delta)·Rmax/Rmin): slope vs delta ~ -1, \
       slope vs Rmax/Rmin ~ +1";
    tables =
      [
        ("MtC vs Thm-2 adversary, Rmin = Rmax = 2, D = 2 (line)",
         Sweep.to_table delta_sweep);
        (fmt
           "MtC vs Thm-2 adversary, Rmin = 1, delta = %g, D = %g (line)"
           delta d,
         Sweep.to_table rmax_sweep);
      ];
    findings =
      [
        fmt "%s (paper predicts -1)" (Sweep.slope_line delta_sweep);
        fmt "%s (paper predicts +1)" (Sweep.slope_line rmax_sweep);
      ];
  }

(* ------------------------------------------------------------------ *)
(* E3: Theorem 3 — Answer-First lower bound Omega(r/D).               *)

let e3 ~seed ~quick =
  let seeds = if quick then 4 else 16 in
  let cycles = if quick then 16 else 64 in
  let rs = if quick then [ 2.; 8. ] else [ 1.; 2.; 4.; 8.; 16.; 32. ] in
  let d = 2.0 in
  let config =
    Config.make ~d_factor:d ~move_limit:1.0 ~delta:1.0
      ~variant:Variant.Serve_first ()
  in
  let r_sweep =
    Sweep.run ~knob:"r" ~xs:rs
      ~predicted:(fun r ->
        Offline.Closed_form.thm3_predicted_ratio ~d ~r:(int_of_float r))
      (fun r ->
        Ratio.vs_construction ~seeds ~base_seed:seed ~name:(fmt "e3-r%g" r)
          config mtc
          (fun rng ->
            Adversary.Thm3.generate ~cycles ~dim:1 ~r:(int_of_float r) config
              rng))
  in
  let ds = if quick then [ 1.; 4. ] else [ 1.; 2.; 4.; 8. ] in
  let d_sweep =
    Sweep.run ~knob:"D" ~xs:ds
      ~predicted:(fun d ->
        Offline.Closed_form.thm3_predicted_ratio ~d ~r:8)
      (fun d ->
        let config =
          Config.make ~d_factor:d ~move_limit:1.0 ~delta:1.0
            ~variant:Variant.Serve_first ()
        in
        Ratio.vs_construction ~seeds ~base_seed:seed ~name:(fmt "e3-D%g" d)
          config mtc
          (fun rng -> Adversary.Thm3.generate ~cycles ~dim:1 ~r:8 config rng))
  in
  {
    id = "e3";
    title = "Theorem 3: Answer-First variant lower bound";
    prediction =
      "expected ratio = Omega(r/D) even with maximal augmentation: slope \
       vs r ~ +1, slope vs D ~ -1";
    tables =
      [
        (fmt "MtC (serve-first) vs Thm-3 adversary, D = %g, delta = 1" d,
         Sweep.to_table r_sweep);
        ("MtC (serve-first) vs Thm-3 adversary, r = 8, delta = 1",
         Sweep.to_table d_sweep);
      ];
    findings =
      [
        fmt "%s (paper predicts +1)" (Sweep.slope_line r_sweep);
        fmt "%s (paper predicts -1)" (Sweep.slope_line d_sweep);
      ];
  }

(* ------------------------------------------------------------------ *)
(* E4: Theorem 4 on the line — MtC is O(1/delta) vs the exact OPT.    *)

let e4 ~seed ~quick =
  let seeds = if quick then 3 else 8 in
  let d = 4.0 in
  let deltas =
    if quick then [ 1.0; 0.25 ] else [ 1.0; 0.5; 0.25; 0.125 ]
  in
  (* Adversarial family: the Thm-2 construction, but priced against the
     exact 1-D optimum rather than the adversary's own path. *)
  let adversarial =
    Sweep.run ~knob:"delta" ~xs:deltas ~predicted:(fun delta -> 1.0 /. delta)
      (fun delta ->
        let config = Config.make ~d_factor:d ~move_limit:1.0 ~delta () in
        Ratio.vs_opt ~seeds ~base_seed:seed ~name:(fmt "e4-adv%g" delta)
          config mtc
          (fun rng ->
            let c =
              Adversary.Thm2.generate ~cycles:2 ~dim:1 ~r_min:2 ~r_max:2
                config rng
            in
            c.Construction.instance))
  in
  (* Stochastic family: drifting 1-D clusters. *)
  let t_len = if quick then 150 else 400 in
  let stochastic =
    Sweep.run ~knob:"delta" ~xs:deltas ~predicted:(fun delta -> 1.0 /. delta)
      (fun delta ->
        let config = Config.make ~d_factor:d ~move_limit:1.0 ~delta () in
        Ratio.vs_opt ~seeds ~base_seed:seed ~name:(fmt "e4-rand%g" delta)
          config mtc
          (fun rng ->
            Workloads.Clusters.generate ~r_min:2 ~r_max:2 ~sigma:1.0
              ~drift:0.3 ~arena:20.0 ~dim:1 ~t:t_len rng))
  in
  (* Horizon independence at fixed delta. *)
  let ts = if quick then [ 100.; 300. ] else [ 200.; 400.; 800.; 1600. ] in
  let config = Config.make ~d_factor:d ~move_limit:1.0 ~delta:0.5 () in
  let horizon =
    Sweep.run ~knob:"T" ~xs:ts ~predicted:(fun _ -> 1.0 /. 0.5)
      (fun t ->
        Ratio.vs_opt ~seeds ~base_seed:seed ~name:(fmt "e4-T%g" t) config
          mtc
          (fun rng ->
            Workloads.Clusters.generate ~r_min:2 ~r_max:2 ~sigma:1.0
              ~drift:0.3 ~arena:20.0 ~dim:1 ~t:(int_of_float t) rng))
  in
  {
    id = "e4";
    title = "Theorem 4 (line): MtC is O(1/delta)-competitive";
    prediction =
      "ratio vs exact 1-D OPT bounded by c/delta, independent of T; \
       log-log slope vs delta >= -1";
    tables =
      [
        ("MtC vs exact OPT (line DP) on Thm-2 instances, D = 4",
         Sweep.to_table adversarial);
        ("MtC vs exact OPT (line DP) on drifting 1-D clusters, D = 4",
         Sweep.to_table stochastic);
        ("Horizon independence: delta = 0.5, drifting clusters",
         Sweep.to_table horizon);
      ];
    findings =
      [
        fmt "adversarial: %s (paper bound: >= -1)"
          (Sweep.slope_line adversarial);
        fmt "stochastic: %s (benign workloads need not show the worst case)"
          (Sweep.slope_line stochastic);
        fmt "horizon: %s (paper predicts ~ 0)" (Sweep.slope_line horizon);
      ];
  }

(* ------------------------------------------------------------------ *)
(* E5: Theorem 4 in the plane — MtC is O(1/delta^{3/2}).              *)

let e5 ~seed ~quick =
  let seeds = if quick then 2 else 6 in
  let max_iter = if quick then 80 else 300 in
  let d = 4.0 in
  let deltas =
    if quick then [ 1.0; 0.25 ] else [ 1.0; 0.5; 0.25; 0.125 ]
  in
  let adversarial =
    Sweep.run ~knob:"delta" ~xs:deltas
      ~predicted:(fun delta -> Float.pow delta (-1.5))
      (fun delta ->
        let config = Config.make ~d_factor:d ~move_limit:1.0 ~delta () in
        Ratio.vs_construction_tight ~max_iter ~seeds ~base_seed:seed
          ~name:(fmt "e5-adv%g" delta) config mtc
          (fun rng ->
            Adversary.Thm2.generate ~cycles:2 ~planar:true ~dim:2 ~r_min:2
              ~r_max:2 config rng))
  in
  let t_len = if quick then 100 else 200 in
  let stochastic =
    Sweep.run ~knob:"delta" ~xs:deltas
      ~predicted:(fun delta -> Float.pow delta (-1.5))
      (fun delta ->
        let config = Config.make ~d_factor:d ~move_limit:1.0 ~delta () in
        Ratio.vs_opt ~max_iter ~seeds ~base_seed:seed
          ~name:(fmt "e5-rand%g" delta) config mtc
          (fun rng ->
            Workloads.Clusters.generate ~r_min:2 ~r_max:2 ~sigma:1.0
              ~drift:0.3 ~arena:15.0 ~dim:2 ~t:t_len rng))
  in
  {
    id = "e5";
    title = "Theorem 4 (plane): MtC is O(1/delta^{3/2})-competitive";
    prediction =
      "ratio vs convex-solver OPT grows at most like delta^{-3/2}: \
       log-log slope vs delta in [-1.5, 0]";
    tables =
      [
        ("MtC vs tightest OPT bound on planar Thm-2 instances, D = 4",
         Sweep.to_table adversarial);
        ("MtC vs convex OPT on drifting 2-D clusters, D = 4",
         Sweep.to_table stochastic);
      ];
    findings =
      [
        fmt "adversarial: %s (paper bound: >= -1.5)"
          (Sweep.slope_line adversarial);
        fmt "stochastic: %s" (Sweep.slope_line stochastic);
      ];
  }

(* ------------------------------------------------------------------ *)
(* E6: Theorem 7 — Answer-First MtC pays at most ~2·max(1, r/D) more. *)

let e6 ~seed ~quick =
  let seeds = if quick then 3 else 8 in
  let t_len = if quick then 120 else 300 in
  let d = 4.0 and delta = 0.5 in
  let rs = if quick then [ 2; 8 ] else [ 1; 2; 4; 8; 16 ] in
  let measure r variant =
    let config =
      Config.make ~d_factor:d ~move_limit:1.0 ~delta ~variant ()
    in
    Ratio.vs_opt ~seeds ~base_seed:seed
      ~name:(fmt "e6-r%d-%s" r (Variant.to_string variant))
      config mtc
      (fun rng ->
        Workloads.Clusters.generate ~r_min:r ~r_max:r ~sigma:1.0 ~drift:0.3
          ~arena:20.0 ~dim:1 ~t:t_len rng)
  in
  let rows =
    List.map
      (fun r ->
        let std = measure r Variant.Move_first in
        let af = measure r Variant.Serve_first in
        let overhead = af.Ratio.mean /. std.Ratio.mean in
        let predicted = 2.0 *. Float.max 1.0 (float_of_int r /. d) in
        [
          float_of_int r;
          std.Ratio.mean;
          af.Ratio.mean;
          overhead;
          predicted;
        ])
      rs
  in
  let table =
    Tables.of_floats
      ~header:
        [ "r"; "move-first ratio"; "serve-first ratio"; "overhead";
          "paper cap ~2·max(1,r/D)" ]
      rows
  in
  let violations =
    List.filter
      (fun row ->
        match row with
        | [ _; _; _; overhead; cap ] -> overhead > cap *. 1.25
        | _ -> false)
      rows
  in
  {
    id = "e6";
    title = "Theorem 7: MtC in the Answer-First variant";
    prediction =
      "serve-first costs at most a factor ~2 more for r <= D and ~2r/D \
       for r > D (on the same sequences)";
    tables =
      [ (fmt "MtC under both variants, D = %g, delta = %g (line)" d delta,
         table) ];
    findings =
      [
        (if violations = [] then
           "measured overhead stays within the paper's factor at every r"
         else
           fmt "WARNING: %d sweep points exceed the predicted factor"
             (List.length violations));
      ];
  }

(* ------------------------------------------------------------------ *)
(* E7: Theorem 8 — fast moving client is hopeless: Omega(sqrt T).     *)

let e7 ~seed ~quick =
  let seeds = if quick then 4 else 16 in
  let epsilons = if quick then [ 0.5 ] else [ 0.1; 0.5; 1.0 ] in
  let ts = if quick then [ 64.; 256. ] else [ 64.; 256.; 1024.; 4096. ] in
  let config = Config.make ~d_factor:1.0 ~move_limit:1.0 ~delta:0.0 () in
  let tables, findings =
    List.fold_left
      (fun (tables, findings) epsilon ->
        let sweep =
          Sweep.run ~knob:"T" ~xs:ts
            ~predicted:(fun t ->
              Offline.Closed_form.thm8_predicted_ratio ~epsilon
                ~t:(int_of_float t))
            (fun t ->
              Ratio.vs_construction ~seeds ~base_seed:seed
                ~name:(fmt "e7-eps%g-T%g" epsilon t) config mtc
                (fun rng ->
                  Adversary.Thm8.generate ~dim:1 ~t:(int_of_float t) ~epsilon
                    config rng))
        in
        ( (fmt "MtC vs Thm-8 adversary, agent speed (1+%g)·m_s" epsilon,
           Sweep.to_table sweep)
          :: tables,
          fmt "epsilon = %g: %s (paper predicts 0.5)" epsilon
            (Sweep.slope_line sweep)
          :: findings ))
      ([], []) epsilons
  in
  {
    id = "e7";
    title = "Theorem 8: moving client faster than the server";
    prediction = "expected ratio = Omega(sqrt(T)·eps/(1+eps))";
    tables = List.rev tables;
    findings = List.rev findings;
  }

(* ------------------------------------------------------------------ *)
(* E8: Theorem 10 — slow moving client: O(1) without augmentation.    *)

let e8 ~seed ~quick =
  let seeds = if quick then 2 else 4 in
  let max_iter = if quick then 60 else 250 in
  let ts = if quick then [ 128.; 512. ] else [ 128.; 512.; 2048. ] in
  let workloads =
    [
      ("random-walk agent (sigma = 0.2)",
       fun rng t ->
         Workloads.Random_walk.generate ~clients:1 ~sigma:0.2 ~dim:2 ~t rng);
      ("commuter agent (speed = m)",
       fun rng t -> Workloads.Commuter.generate ~agent_speed:1.0 ~dim:2 ~t rng);
      ("disaster coordinator (speed = 0.85)",
       fun rng t ->
         Workloads.Disaster.generate_single ~helper_speed:0.8
           ~zone_drift:0.05 ~dim:2 ~t rng);
    ]
  in
  let d_values = if quick then [ 4.0 ] else [ 1.0; 4.0; 16.0 ] in
  let tables, findings =
    List.fold_left
      (fun (tables, findings) (label, gen) ->
        let sub_tables, sub_findings =
          List.fold_left
            (fun (ts_acc, fs_acc) d ->
              let config =
                Config.make ~d_factor:d ~move_limit:1.0 ~delta:0.0 ()
              in
              let sweep =
                Sweep.run ~knob:"T" ~xs:ts ~predicted:(fun _ -> 1.0)
                  (fun t ->
                    Ratio.vs_opt ~max_iter ~seeds ~base_seed:seed
                      ~name:(fmt "e8-%s-D%g-T%g" label d t) config mtc
                      (fun rng -> gen rng (int_of_float t)))
              in
              ( (fmt "%s, D = %g" label d, Sweep.to_table sweep) :: ts_acc,
                fmt "%s, D = %g: %s (paper predicts ~ 0)" label d
                  (Sweep.slope_line sweep)
                :: fs_acc ))
            ([], []) d_values
        in
        (tables @ List.rev sub_tables, findings @ List.rev sub_findings))
      ([], []) workloads
  in
  {
    id = "e8";
    title =
      "Theorem 10: moving client no faster than the server, no augmentation";
    prediction =
      "ratio is O(1): flat in T, small constant (proof constant <= 36)";
    tables;
    findings;
  }

(* ------------------------------------------------------------------ *)
(* E9: the potential-function invariant behind Theorem 4 (Figs. 1-2). *)

let lemma6_violations ~samples rng =
  (* Sample random geometries satisfying Lemma 6's hypothesis and count
     violations of its conclusion.  Degenerate geometries (a1 or a2
     vanishing) are resampled; the comparison uses a relative tolerance
     for floating-point noise. *)
  let violations = ref 0 in
  for _ = 1 to samples do
    let delta = Prng.Dist.uniform rng ~lo:0.05 ~hi:1.0 in
    let c = Vec.zero 2 in
    let p_alg = Prng.Dist.in_ball rng ~center:c ~radius:10.0 in
    let gap = Vec.dist p_alg c in
    if gap > 1e-3 then begin
      (* Move a random fraction toward c, keeping both a1 and a2 well
         away from zero. *)
      let a1 = Prng.Dist.uniform rng ~lo:(0.05 *. gap) ~hi:(0.95 *. gap) in
      let p_alg' = Vec.move_towards p_alg c a1 in
      let a2 = Vec.dist p_alg' c in
      (* Place OPT's server within the hypothesis ball around c. *)
      let s2_max = sqrt delta /. (1.0 +. (delta /. 2.0)) *. a2 in
      let p_opt' = Prng.Dist.in_ball rng ~center:c ~radius:s2_max in
      let h = Vec.dist p_opt' p_alg in
      let q = Vec.dist p_opt' p_alg' in
      let bound = (1.0 +. (delta /. 2.0)) /. (1.0 +. delta) *. a1 in
      if h -. q < bound -. (1e-7 *. Float.max 1.0 gap) then incr violations
    end
  done;
  !violations

let e9 ~seed ~quick =
  let t_len = if quick then 150 else 500 in
  let delta = 0.5 in
  let cases =
    [ ("r > D", 4, 2.0, 1); ("r > D", 4, 2.0, 2);
      ("r <= D", 1, 4.0, 1); ("r <= D", 1, 4.0, 2) ]
  in
  let rows =
    (* Each case owns a named stream, so the four adaptive-adversary
       runs are independent cells. *)
    Exec.map_list
      (fun (regime, r, d, dim) ->
        let config = Config.make ~d_factor:d ~move_limit:1.0 ~delta () in
        let rng = Prng.Stream.named ~name:(fmt "e9-%s-%d" regime dim) ~seed in
        let c = Adversary.Adaptive.generate ~r ~rng ~dim ~t:t_len config mtc in
        let run = Engine.run config mtc c.Construction.instance in
        let report =
          Potential.check config ~r c.Construction.instance
            ~alg_positions:run.Engine.positions
            ~opt_positions:c.Construction.adversary_positions
        in
        (* The dominant proof constant: c/delta^{3/2} in the plane,
           c/delta on the line, with c <= 264 in the worst case of the
           case analysis (plus lower-order terms absorbed into +10). *)
        let proof_k =
          if dim = 1 then (264.0 /. delta) +. 10.0
          else (264.0 /. Float.pow delta 1.5) +. 10.0
        in
        ( [
            regime; string_of_int dim; string_of_int r; Tables.cell d;
            Tables.cell report.Potential.min_constant;
            Tables.cell proof_k;
            string_of_int report.Potential.zero_opt_rounds;
            Tables.cell report.Potential.max_zero_opt_excess;
          ],
          report.Potential.min_constant <= proof_k
          && report.Potential.max_zero_opt_excess <= 1e-6 ))
      cases
  in
  let table =
    Tables.create
      ~header:
        [ "regime"; "dim"; "r"; "D"; "measured K"; "proof K";
          "zero-OPT rounds"; "max excess" ]
      (List.map fst rows)
  in
  let all_ok = List.for_all snd rows in
  (* The Theorem 10 potential on a slow moving client, no augmentation;
     the proof's constant is 36. *)
  let mc_report =
    let config = Config.make ~d_factor:2.0 ~move_limit:1.0 ~delta:0.0 () in
    let rng = Prng.Stream.named ~name:"e9-mc" ~seed in
    let inst =
      Workloads.Random_walk.generate ~clients:1 ~sigma:0.2 ~dim:2 ~t:t_len
        rng
    in
    let run = Engine.run config mtc inst in
    let opt =
      Offline.Convex_opt.solve ~max_iter:(if quick then 80 else 200) config
        inst
    in
    Potential.check_moving_client config inst
      ~alg_positions:run.Engine.positions
      ~opt_positions:opt.Offline.Convex_opt.positions
  in
  let samples = if quick then 10_000 else 100_000 in
  let lemma6_bad =
    lemma6_violations ~samples (Prng.Stream.named ~name:"e9-lemma6" ~seed)
  in
  {
    id = "e9";
    title = "Potential-function invariant (Sections 4.1-4.2, Figures 1-2)";
    prediction =
      "every round satisfies C_Alg + dPhi <= K·C_Opt with \
       K = O(1/delta^{3/2}) (plane) / O(1/delta) (line); Lemma 6 holds \
       for all geometries";
    tables =
      [ (fmt "per-round invariant along adaptive-adversary runs (T = %d, \
              delta = %g)" t_len delta,
         table) ];
    findings =
      [
        (if all_ok then
           "invariant holds in every case at the proof's constants"
         else "WARNING: some case exceeded the proof constant");
        fmt
          "Theorem 10 potential (slow moving client, delta = 0): measured \
           K = %.3g vs proof constant 36%s"
          mc_report.Potential.min_constant
          (if mc_report.Potential.min_constant <= 36.0 then " — holds"
           else " — VIOLATED");
        fmt "Lemma 6: %d violations in %d sampled geometries" lemma6_bad
          samples;
      ];
  }

(* ------------------------------------------------------------------ *)
(* T1: synthesized algorithm comparison across workload families.     *)

let t1 ~seed ~quick =
  let t_len = if quick then 120 else 400 in
  let seeds = if quick then 1 else 3 in
  let max_iter = if quick then 60 else 250 in
  let dim = 2 in
  let config = Config.make ~d_factor:4.0 ~move_limit:1.0 ~delta:0.0 () in
  let algorithms = Baselines.Registry.all ~dim in
  let workloads =
    [
      ("clusters",
       fun rng -> Workloads.Clusters.generate ~dim ~t:t_len rng);
      ("bursts", fun rng -> Workloads.Bursts.generate ~dim ~t:t_len rng);
      ("cars", fun rng -> Workloads.Cars.generate ~dim ~t:t_len rng);
      ("random-walk",
       fun rng ->
         Workloads.Random_walk.generate ~clients:4 ~sigma:0.4 ~dim ~t:t_len
           rng);
      ("commuter", fun rng -> Workloads.Commuter.generate ~dim ~t:t_len rng);
      ("disaster", fun rng -> Workloads.Disaster.generate ~dim ~t:t_len rng);
      ("zipf-content",
       fun rng -> Workloads.Popular_content.generate ~dim ~t:t_len rng);
    ]
  in
  let rows =
    List.map
      (fun (label, gen) ->
        let base = Prng.Stream.named ~name:(fmt "t1-%s" label) ~seed in
        (* Each algorithm of seed i gets a fresh replicate 1000 + i, so
           all of them see the same stream. *)
        let ratios =
          Ratio.cells ~seeds base (fun i rng ->
              let packed = Instance.pack (gen rng) in
              let opt = Offline.Opt_cache.convex ~max_iter config packed in
              List.map
                (fun alg ->
                  Ratio.cost_pair
                    ~rng:(Prng.Stream.replicate base (1000 + i))
                    config alg packed ~opt)
                algorithms)
        in
        label :: List.map Tables.cell (Ratio.column_means ratios))
      workloads
  in
  let header =
    "workload"
    :: List.map (fun a -> a.Mobile_server.Algorithm.name) algorithms
  in
  let aligns =
    Tables.Left :: List.map (fun _ -> Tables.Right) algorithms
  in
  let table = Tables.create ~aligns ~header rows in
  {
    id = "t1";
    title = "Algorithm comparison (cost / convex OPT, mean over seeds)";
    prediction =
      "MtC is uniformly robust (no blow-ups); stay-put degrades on \
       drifting workloads; specialists (greedy on single-agent \
       tracking) may win their niche but have no worst-case guarantee";
    tables = [ (fmt "D = 4, m = 1, delta = 0, T = %d, 2-D" t_len, table) ];
    findings = [];
  }

(* ------------------------------------------------------------------ *)
(* E10: dimension sweep — the analysis targets the plane, but the      *)
(* model (and the lower bounds) hold in any dimension.                 *)

let e10 ~seed ~quick =
  let seeds = if quick then 2 else 5 in
  let max_iter = if quick then 60 else 200 in
  let t_len = if quick then 100 else 250 in
  let dims = if quick then [ 1.; 3. ] else [ 1.; 2.; 3.; 5. ] in
  let d = 4.0 and delta = 0.5 in
  let config = Config.make ~d_factor:d ~move_limit:1.0 ~delta () in
  let stochastic =
    Sweep.run ~knob:"dim" ~xs:dims ~predicted:(fun _ -> 1.0)
      (fun dim ->
        let dim = int_of_float dim in
        let gen rng =
          Workloads.Clusters.generate ~r_min:2 ~r_max:2 ~sigma:1.0 ~drift:0.3
            ~arena:15.0 ~dim ~t:t_len rng
        in
        Ratio.vs_opt ~max_iter ~seeds ~base_seed:seed
          ~name:(fmt "e10-d%d" dim) config mtc gen)
  in
  let adversarial =
    Sweep.run ~knob:"dim" ~xs:dims ~predicted:(fun _ -> 1.0 /. delta)
      (fun dim ->
        let dim = int_of_float dim in
        Ratio.vs_construction ~seeds ~base_seed:seed
          ~name:(fmt "e10-adv-d%d" dim) config mtc
          (fun rng ->
            Adversary.Thm2.generate ~cycles:2 ~dim ~r_min:2 ~r_max:2 config
              rng))
  in
  {
    id = "e10";
    title = "Dimension sweep: MtC beyond the plane";
    prediction =
      "the lower bounds are dimension-free and the axis-aligned \
       adversary cannot exploit extra dimensions; stochastic ratios \
       grow only mildly with dim";
    tables =
      [
        ("MtC vs OPT on drifting clusters across dimensions, D = 4, \
          delta = 0.5",
         Sweep.to_table stochastic);
        ("MtC vs Thm-2 adversary across dimensions", Sweep.to_table adversarial);
      ];
    findings =
      [
        fmt "stochastic: %s" (Sweep.slope_line stochastic);
        fmt "adversarial: %s (expected ~ 0: the construction is \
             axis-aligned in every dimension)"
          (Sweep.slope_line adversarial);
      ];
  }

(* ------------------------------------------------------------------ *)
(* A1: design ablation — is min(1, r/D) toward the geometric median   *)
(* actually the right rule?                                            *)

let a1 ~seed ~quick =
  let seeds = if quick then 2 else 6 in
  let t_len = if quick then 120 else 300 in
  let d = 4.0 and delta = 0.5 in
  let config = Config.make ~d_factor:d ~move_limit:1.0 ~delta () in
  (* Pull-factor variants: step alpha·(r/D)·d toward the median. *)
  let pull_variant alpha =
    Algorithm.of_policy ~name:(fmt "mtc-pull(%g)" alpha)
      (fun (config : Config.t) ~server requests ->
        if Array.length requests = 0 then server
        else begin
          let c = Mtc.center ~server requests in
          let pull =
            Float.min 1.0
              (alpha *. float_of_int (Array.length requests)
               /. config.Config.d_factor)
          in
          Geometry.Vec.move_towards server c (pull *. Geometry.Vec.dist server c)
        end)
  in
  let variants =
    [ Mtc.algorithm; Mtc.mean_variant; pull_variant 0.25; pull_variant 0.5;
      pull_variant 2.0; pull_variant 4.0 ]
  in
  let families =
    [
      ("drifting clusters (1-D, exact OPT)",
       fun alg ->
         (Ratio.vs_opt ~seeds ~base_seed:seed
            ~name:(fmt "a1-line-%s" alg.Algorithm.name) config alg
            (fun rng ->
              Workloads.Clusters.generate ~r_min:2 ~r_max:2 ~sigma:1.0
                ~drift:0.3 ~arena:20.0 ~dim:1 ~t:t_len rng))
           .Ratio.mean);
      ("Thm-2 adversary (1-D, vs adversary path)",
       fun alg ->
         (Ratio.vs_construction ~seeds ~base_seed:seed
            ~name:(fmt "a1-adv-%s" alg.Algorithm.name) config alg
            (fun rng ->
              Adversary.Thm2.generate ~cycles:2 ~dim:1 ~r_min:2 ~r_max:2
                config rng))
           .Ratio.mean);
      ("bursts (1-D, exact OPT)",
       fun alg ->
         (Ratio.vs_opt ~seeds ~base_seed:seed
            ~name:(fmt "a1-burst-%s" alg.Algorithm.name) config alg
            (fun rng ->
              Workloads.Bursts.generate ~arena:20.0 ~dim:1 ~t:t_len rng))
           .Ratio.mean);
    ]
  in
  let rows =
    List.map
      (fun alg ->
        alg.Algorithm.name
        :: List.map (fun (_, measure) -> Tables.cell (measure alg)) families)
      variants
  in
  let header = "variant" :: List.map fst families in
  let aligns = Tables.Left :: List.map (fun _ -> Tables.Right) families in
  {
    id = "a1";
    title = "Ablation: MtC's center choice and pull factor";
    prediction =
      "the paper's rule (geometric median, pull exactly min(1, r/D)) \
       should be at or near the best of the family; under-damped \
       (alpha > 1) variants overpay movement on adversarial inputs, \
       over-damped (alpha < 1) variants trail drifting workloads";
    tables =
      [ (fmt "mean ratio per variant, D = %g, delta = %g" d delta,
         Tables.create ~aligns ~header rows) ];
    findings = [];
  }

(* ------------------------------------------------------------------ *)
(* A2: Lemma 5 — collapsing each round's requests onto MtC's center    *)
(* point changes the competitive ratio by at most 4x + 1.              *)

(* Replay MtC over [inst] and record the center it picks each round;
   the collapsed instance has all of the round's requests sitting on
   that center. *)
let collapse_onto_centers config (inst : Instance.t) =
  let session =
    Engine.Session.create config mtc ~start:inst.Instance.start
  in
  let steps =
    Array.map
      (fun requests ->
        let server = Engine.Session.position session in
        let c =
          if Array.length requests = 0 then server
          else Mtc.center ~server requests
        in
        ignore (Engine.Session.step session requests);
        Array.map (fun _ -> Vec.copy c) requests)
      inst.Instance.steps
  in
  Instance.make ~start:inst.Instance.start steps

let a2 ~seed ~quick =
  let seeds = if quick then 2 else 6 in
  let t_len = if quick then 120 else 300 in
  let config = Config.make ~d_factor:4.0 ~move_limit:1.0 ~delta:0.5 () in
  let families =
    [
      ("clusters r=3",
       fun rng ->
         Workloads.Clusters.generate ~r_min:3 ~r_max:3 ~sigma:1.5 ~drift:0.3
           ~arena:15.0 ~dim:1 ~t:t_len rng);
      ("bursts",
       fun rng -> Workloads.Bursts.generate ~arena:15.0 ~dim:1 ~t:t_len rng);
      ("hotspots",
       fun rng ->
         Workloads.Hotspots.generate ~hotspots:2 ~spread:10.0 ~dim:1 ~t:t_len
           rng);
    ]
  in
  let rows =
    List.map
      (fun (label, gen) ->
        let base = Prng.Stream.named ~name:(fmt "a2-%s" label) ~seed in
        let measure inst =
          let packed = Instance.pack inst in
          let opt = Offline.Opt_cache.line_dp config packed in
          Engine.total_cost_packed config mtc packed /. opt
        in
        let ratios =
          Ratio.cells ~seeds base (fun _ rng ->
              let inst = gen rng in
              let collapsed = collapse_onto_centers config inst in
              let orig = measure inst in
              [ orig; measure collapsed ])
        in
        match Ratio.column_means ratios with
        | [ orig; coll ] ->
          ( [ label; Tables.cell orig; Tables.cell coll;
              Tables.cell ((4.0 *. coll) +. 1.0) ],
            orig <= (4.0 *. coll) +. 1.0 +. 1e-9 )
        | _ -> assert false)
      families
  in
  let table =
    Tables.create
      ~aligns:[ Tables.Left; Tables.Right; Tables.Right; Tables.Right ]
      ~header:
        [ "workload"; "ratio (original)"; "ratio (collapsed)";
          "Lemma-5 cap 4x+1" ]
      (List.map fst rows)
  in
  let all_ok = List.for_all snd rows in
  {
    id = "a2";
    title = "Lemma 5: collapsing requests onto the center point";
    prediction =
      "MtC's ratio on the original instance is at most 4x+1 times its \
       ratio on the instance whose requests all sit on MtC's center \
       point";
    tables = [ ("MtC vs exact 1-D OPT, D = 4, delta = 0.5", table) ];
    findings =
      [
        (if all_ok then "Lemma 5's cap holds on every family"
         else "WARNING: Lemma 5's cap violated");
      ];
  }

(* ------------------------------------------------------------------ *)
(* B1: background — classical Page Migration on graphs, and what the  *)
(* paper's movement cap costs relative to it.                          *)

let b1 ~seed ~quick =
  let seeds = if quick then 2 else 5 in
  let t_len = if quick then 150 else 400 in
  let base = Prng.Stream.named ~name:"b1" ~seed in
  let graphs =
    [
      ("complete-16", fun _rng -> Network.Graph.complete 16);
      ("grid-5x5", fun _rng -> Network.Graph.grid ~width:5 ~height:5 ());
      ("random-tree-24", fun rng -> Network.Graph.random_tree ~n:24 rng);
      ("geometric-24",
       fun rng -> fst (Network.Graph.random_geometric ~n:24 rng));
    ]
  in
  let d = 4.0 in
  let ratio_rows =
    List.map
      (fun (label, build) ->
        let ratios =
          Ratio.cells ~seeds base (fun i rng ->
              let graph = build rng in
              let metric = Network.Dijkstra.all_pairs graph in
              let inst =
                Network.Pm_model.localized_requests graph ~t:t_len rng
              in
              let opt =
                Network.Pm_offline.optimum_cached ~graph metric ~d_factor:d
                  inst
              in
              List.map
                (fun alg ->
                  let run =
                    Network.Pm_model.run
                      ~rng:(Prng.Stream.replicate base (100 + i))
                      metric ~d_factor:d alg inst
                  in
                  Network.Pm_model.total run /. opt)
                Network.Pm_algorithms.all)
        in
        label :: List.map Tables.cell (Ratio.column_means ratios))
      graphs
  in
  let ratio_table =
    Tables.create
      ~aligns:
        (Tables.Left
         :: List.map (fun _ -> Tables.Right) Network.Pm_algorithms.all)
      ~header:
        ("graph"
         :: List.map
              (fun a -> a.Network.Pm_model.name)
              Network.Pm_algorithms.all)
      ratio_rows
  in
  (* The bridge: embed a geometric graph's PM instance into the plane
     and measure what the movement cap costs the offline optimum. *)
  let bridge_rows =
    let rng = Prng.Stream.replicate base 999 in
    let graph, layout = Network.Graph.random_geometric ~n:24 rng in
    let metric = Network.Dijkstra.all_pairs graph in
    let pm_inst =
      Network.Pm_model.localized_requests graph
        ~t:(if quick then 100 else 250) rng
    in
    let mobile = Network.Embedding.to_mobile_instance ~layout pm_inst in
    let packed_mobile = Instance.pack mobile in
    let uncapped =
      Network.Pm_offline.optimum_cached ~graph metric ~d_factor:d pm_inst
    in
    (* Each movement cap is an independent offline solve on the shared
       (immutable, packed-once) embedded instance. *)
    Exec.map_list
      (fun m ->
        let config = Config.make ~d_factor:d ~move_limit:m ~delta:0.0 () in
        let capped =
          Offline.Opt_cache.convex ~max_iter:(if quick then 60 else 200)
            config packed_mobile
        in
        let mtc_cost = Engine.total_cost_packed config mtc packed_mobile in
        List.map Tables.cell
          [ m; uncapped; capped; capped /. uncapped; mtc_cost /. capped ])
      [ 0.25; 0.5; 1.0; 2.0; 8.0 ]
  in
  let bridge_table =
    Tables.create
      ~header:
        [ "cap m"; "uncapped page OPT"; "capped server OPT";
          "cap overhead"; "MtC / capped OPT" ]
      bridge_rows
  in
  {
    id = "b1";
    title =
      "Background: classical Page Migration, and the price of the \
       movement cap";
    prediction =
      "uncapped classics behave as published (coin-flip ~3, \
       move-to-min <= 7, greedy/stay-put unbounded in the worst case); \
       the embedded comparison shows the capped optimum converging to \
       the uncapped one as m grows";
    tables =
      [
        (fmt "graph PM: cost / exact offline DP, localized requests, \
              D = %g, T = %d" d t_len,
         ratio_table);
        ("embedded geometric-24 instance: movement-cap overhead",
         bridge_table);
      ];
    findings = [];
  }

(* ------------------------------------------------------------------ *)
(* X1: the k-server extension from the paper's conclusion.            *)

let x1 ~seed ~quick =
  let seeds = if quick then 1 else 3 in
  let t_len = if quick then 100 else 300 in
  let ks = if quick then [ 1; 3 ] else [ 1; 2; 3; 4 ] in
  let config = Config.make ~d_factor:4.0 ~move_limit:1.0 ~delta:0.0 () in
  let algorithms =
    [ Multi.Fleet_mtc.independent; Multi.Fleet_mtc.greedy_partition;
      Multi.Fleet_mtc.kmeans_tracker; Multi.Fleet_algorithm.stay_put ]
  in
  let rows =
    List.map
      (fun k ->
        let base = Prng.Stream.named ~name:(fmt "x1-k%d" k) ~seed in
        let cells =
          Ratio.cells ~seeds base (fun i rng ->
              let inst =
                Workloads.Hotspots.generate ~hotspots:3 ~dim:2 ~t:t_len rng
              in
              let bound, label =
                Multi.Fleet_offline.best_upper ~k config inst rng
              in
              let costs =
                List.map
                  (fun alg ->
                    Multi.Fleet_engine.total_cost
                      ~rng:(Prng.Stream.replicate base (100 + i))
                      ~k config alg inst)
                  algorithms
              in
              (costs @ [ bound ], label))
        in
        (* The bound column is the mean over seeds; its label is the
           last seed's. *)
        string_of_int k
        :: (List.map Tables.cell (Ratio.column_means (Array.map fst cells))
            @ [ snd cells.(seeds - 1) ]))
      ks
  in
  let header =
    "k"
    :: (List.map (fun a -> a.Multi.Fleet_algorithm.name) algorithms
        @ [ "offline bound"; "bound used" ])
  in
  let aligns =
    Tables.Right
    :: (List.map (fun _ -> Tables.Right) algorithms
        @ [ Tables.Right; Tables.Left ])
  in
  {
    id = "x1";
    title =
      "Extension (paper's conclusion): k mobile servers with capped \
       movement";
    prediction =
      "on 3 simultaneous hotspots a k >= 3 fleet with cluster-aware \
       decomposition beats any single server by roughly the hotspot \
       spread; nearest-request decomposition alone cannot redistribute \
       a colocated fleet";
    tables =
      [ (fmt "mean total cost (raw), 3 hotspots, T = %d, D = 4" t_len,
         Tables.create ~aligns ~header rows) ];
    findings = [];
  }

(* ------------------------------------------------------------------ *)
(* F1: the fleet suite (WFA, FtP, combiners) against the exact flow   *)
(* optimum of the serve-assignment relaxation.                        *)

let f1 ~seed ~quick =
  let seeds = if quick then 1 else 3 in
  let t_len = if quick then 12 else 40 in
  let ks = if quick then [ 2 ] else [ 2; 3; 4 ] in
  let config = Config.make ~d_factor:2.0 ~move_limit:1.0 ~delta:0.5 () in
  (* FtP's predictions (and the combiners' candidate pool) depend on
     the instance, so algorithms are built per cell. *)
  let wfa ~k:_ _inst = Multi.Fleet_wfa.algorithm () in
  let ftp ~k inst = Multi.Fleet_prediction.algorithm ~k ~sigma:0.5 ~seed:11 inst in
  let mtc_fleet ~k:_ _inst = Multi.Fleet_mtc.independent in
  let det ~k inst =
    Multi.Fleet_combine.deterministic
      [ Multi.Fleet_wfa.algorithm (); ftp ~k inst; Multi.Fleet_mtc.independent ]
  in
  let rand ~k inst =
    Multi.Fleet_combine.randomized
      [ Multi.Fleet_wfa.algorithm (); ftp ~k inst; Multi.Fleet_mtc.independent ]
  in
  let algorithms =
    [ ("fleet-wfa", wfa); ("fleet-ftp", ftp); ("fleet-mtc", mtc_fleet);
      ("combine-det", det); ("combine-rand", rand) ]
  in
  let rows =
    List.map
      (fun k ->
        let base = Prng.Stream.named ~name:(fmt "f1-k%d" k) ~seed in
        let rows =
          Ratio.cells ~seeds base (fun i rng ->
              let inst =
                Workloads.Hotspots.generate ~hotspots:3 ~dim:2 ~t:t_len rng
              in
              let opt = Multi.Fleet_offline.optimum_flow ~k config inst in
              let upper = Multi.Fleet_offline.optimum ~k config inst rng in
              let ratios =
                List.map
                  (fun (_, make_alg) ->
                    let cost =
                      Multi.Fleet_engine.total_cost
                        ~rng:(Prng.Stream.replicate base (100 + i))
                        ~k config (make_alg ~k inst) inst
                    in
                    cost /. opt)
                  algorithms
              in
              ratios @ [ opt; upper /. opt ])
        in
        string_of_int k :: List.map Tables.cell (Ratio.column_means rows))
      ks
  in
  let header =
    "k" :: (List.map fst algorithms @ [ "flow OPT"; "upper/OPT" ])
  in
  let aligns =
    Tables.Right
    :: (List.map (fun _ -> Tables.Right) algorithms
        @ [ Tables.Right; Tables.Right ])
  in
  {
    id = "f1";
    title =
      "Fleet suite vs the exact min-cost-flow optimum of the \
       serve-assignment relaxation";
    prediction =
      "WFA stays within a small constant of the relaxation optimum and \
       beats memoryless MtC; noisy predictions sit between them and the \
       combiners track the best candidate, per the multi-resource \
       bounds (PAPERS.md).  Ratios use the relaxation OPT as a proxy \
       denominator (it ignores budgets and the service term), so they \
       are comparators, not competitive ratios in the paper's model";
    tables =
      [ (fmt
           "mean cost / flow OPT, 3 hotspots, T = %d, D = 2, sigma = 0.5"
           t_len,
         Tables.create ~aligns ~header rows) ];
    findings = [];
  }

(* ------------------------------------------------------------------ *)

let entries =
  [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("t1", t1);
    ("a1", a1); ("a2", a2); ("x1", x1); ("b1", b1); ("f1", f1) ]

let ids = List.map fst entries

let run ?(seed = 42) ~quick id =
  match List.assoc_opt (String.lowercase_ascii id) entries with
  | Some f -> f ~seed ~quick
  | None ->
    invalid_arg
      (fmt "Catalog.run: unknown experiment %S (known: %s)" id
         (String.concat ", " ids))

let run_all ?seed ~quick () =
  List.map (fun id -> run ?seed ~quick id) ids

(* print_result renders an experiment to the terminal by design; the
   io-stdout lint rule is suppressed for exactly these calls. *)
let print_result r =
  (* msp-lint: allow io-stdout *)
  Printf.printf "\n=== %s: %s ===\n" (String.uppercase_ascii r.id) r.title;
  Printf.printf "paper: %s\n\n" r.prediction; (* msp-lint: allow io-stdout *)
  List.iter
    (fun (caption, table) -> Tables.print ~title:caption table)
    r.tables;
  (* msp-lint: allow io-stdout *)
  List.iter (fun line -> Printf.printf "- %s\n" line) r.findings;
  print_newline () (* msp-lint: allow io-stdout *)

let result_to_markdown r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (fmt "## %s — %s\n\n" (String.uppercase_ascii r.id) r.title);
  Buffer.add_string buf (fmt "*Paper's prediction:* %s\n\n" r.prediction);
  List.iter
    (fun (caption, table) ->
      Buffer.add_string buf (fmt "**%s**\n\n" caption);
      Buffer.add_string buf (Tables.render_markdown table);
      Buffer.add_char buf '\n')
    r.tables;
  if r.findings <> [] then begin
    Buffer.add_string buf "Findings:\n\n";
    List.iter
      (fun line -> Buffer.add_string buf (fmt "- %s\n" line))
      r.findings;
    Buffer.add_char buf '\n'
  end;
  Buffer.contents buf

let report_markdown ?title results =
  let title =
    match title with
    | Some t -> t
    | None ->
      "Reproduction report — The Mobile Server Problem (SPAA 2017)"
  in
  let buf = Buffer.create 8192 in
  Buffer.add_string buf (fmt "# %s\n\n" title);
  Buffer.add_string buf
    "Generated by `bench/main.exe`; see EXPERIMENTS.md for the narrative \
     comparison against the paper.\n\n## Contents\n\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (fmt "- **%s** — %s\n" (String.uppercase_ascii r.id) r.title))
    results;
  Buffer.add_char buf '\n';
  List.iter
    (fun r -> Buffer.add_string buf (result_to_markdown r))
    results;
  Buffer.contents buf
