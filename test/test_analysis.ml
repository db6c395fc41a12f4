(* Tests for the runtime invariant auditor (lib/analysis): clean
   algorithms audit clean and unchanged; injected faults — oversized
   moves, NaN positions, hidden global state — are reported as the
   right violation kinds, and every report matches the wrap-based
   auditor it replaced. *)

module Vec = Geometry.Vec
module Config = Mobile_server.Config
module Instance = Mobile_server.Instance
module Algorithm = Mobile_server.Algorithm
module Engine = Mobile_server.Engine
module Report = Analysis.Report
module Audit = Analysis.Audit

let check_float = Alcotest.(check (float 1e-9))

let instance_of_lists rows =
  Instance.make ~start:(Vec.zero 1)
    (Array.of_list
       (List.map (fun row -> Array.of_list (List.map Vec.make1 row)) rows))

(* --- Faulty algorithms ----------------------------------------------- *)

(* Proposes a move of exactly 2·(1+δ)·m every round. *)
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

(* Answers NaN coordinates from the first round on. *)
let nan_proposer =
  {
    Algorithm.name = "nan-proposer";
    make =
      (fun ?rng:_ _config ~start ->
        let d = Vec.dim start in
        fun _requests -> Array.make d Float.nan);
  }

(* Answers +infinity in every coordinate from the first round on. *)
let inf_proposer =
  {
    Algorithm.name = "inf-proposer";
    make =
      (fun ?rng:_ _config ~start ->
        let d = Vec.dim start in
        fun _requests -> Array.make d Float.infinity);
  }

(* 1-D: answers NaN in round 2 (rounds count from 0) and points far
   beyond the budget in every other round. *)
let nan_once =
  {
    Algorithm.name = "nan-once";
    make =
      (fun ?rng:_ _config ~start:_ ->
        let round = ref 0 in
        fun _requests ->
          incr round;
          if !round = 3 then Vec.make1 Float.nan
          else Vec.make1 (100.0 *. float_of_int !round));
  }

(* Carries hidden state across runs: two same-seed replays diverge. *)
let nondeterministic () =
  let drift = ref 0.0 in
  {
    Algorithm.name = "nondet";
    make =
      (fun ?rng:_ _config ~start ->
        fun _requests ->
          drift := !drift +. 1e-3;
          let p = Vec.copy start in
          p.(0) <- p.(0) +. !drift;
          p);
  }

(* Jumps to the mean of the round's requests, ignoring the budget.  An
   empty round's mean is 0/0 = NaN, so it also answers a non-finite
   proposal followed by finite ones. *)
let teleport =
  {
    Algorithm.name = "teleport";
    make =
      (fun ?rng:_ _config ~start ->
        let d = Vec.dim start in
        fun requests ->
          let n = float_of_int (Array.length requests) in
          Array.init d (fun i ->
              Array.fold_left (fun acc r -> acc +. r.(i)) 0.0 requests /. n));
  }

(* --- Reference auditor ------------------------------------------- *)

(* A verbatim copy of the wrap-based auditor that [Audit.run] replaced:
   it wraps the algorithm, keeps its own copy of the server position
   and tests each proposal against its own slack.  The reference
   property below checks [Audit.run] against it; never edit it to make
   the two agree. *)
module Reference = struct
  module Vec = Geometry.Vec
  module Algorithm = Mobile_server.Algorithm
  module Config = Mobile_server.Config
  module Cost = Mobile_server.Cost
  module Engine = Mobile_server.Engine
  module Instance = Mobile_server.Instance

  exception Violation of Report.violation

  type recorder = {
    mutable rev_violations : Report.violation list;
    mutable fail_fast : bool;
  }

  let recorder () = { rev_violations = []; fail_fast = false }

  let record recorder round kind =
    let v = { Report.round; kind } in
    if recorder.fail_fast then raise (Violation v);
    recorder.rev_violations <- v :: recorder.rev_violations

  let violations recorder = List.rev recorder.rev_violations

  let is_finite_vec v = Array.for_all Float.is_finite v

  let wrap ?(eps = 1e-9) ?(fail_fast = false) recorder (alg : Algorithm.t) =
    recorder.fail_fast <- fail_fast;
    let make ?rng config ~start =
      let stepper = alg.Algorithm.make ?rng config ~start in
      let limit = Config.online_limit config in
      let slack = limit +. (eps *. Float.max 1.0 limit) in
      let dim = Vec.dim start in
      let pos = ref (Vec.copy start) in
      let round = ref 0 in
      fun requests ->
        (match
           Array.find_opt (fun r -> Vec.dim r <> dim) requests
         with
        | Some _ -> assert false
        | None -> ());
        let proposed = stepper requests in
        let usable =
          if Vec.dim proposed <> dim then assert false
          else if not (is_finite_vec proposed) then begin
            record recorder !round Report.Non_finite_proposal;
            false
          end
          else begin
            let d = Vec.dist !pos proposed in
            if d > slack then
              record recorder !round
                (Report.Clamped_proposal { distance = d; limit });
            true
          end
        in
        (* Mirror the engine's position bookkeeping so feasibility is
           measured from where the server actually stands, not from where
           a buggy proposal pretended to put it. *)
        if usable then pos := Vec.clamp_step ~from:!pos limit proposed;
        incr round;
        proposed
    in
    { Algorithm.name = alg.Algorithm.name; make }

  let trajectory_divergence a b =
    (* First (round, coordinate) where two same-seed replays disagree.
       Float.equal treats NaN as equal to itself, so a deterministic
       NaN-producing algorithm does not count as nondeterministic. *)
    let diverged = ref None in
    (try
       Array.iteri
         (fun t p ->
           let q = b.(t) in
           if Vec.dim p <> Vec.dim q then begin
             diverged := Some (t, -1);
             raise Exit
           end;
           Array.iteri
             (fun i x ->
               if not (Float.equal x q.(i)) then begin
                 diverged := Some (t, i);
                 raise Exit
               end)
             p)
         a
     with Exit -> ());
    !diverged

  let run ?(seed = 0) ?eps ?(check_determinism = true) config alg inst =
    let recorder = recorder () in
    let wrapped = wrap ?eps recorder alg in
    let fresh_rng () = Prng.Stream.named ~name:"audit" ~seed in
    let t_len = Instance.length inst in
    let positions = Array.make t_len inst.Instance.start in
    let total = ref Cost.zero in
    let clamped = ref 0 in
    let rev_post = ref [] in
    let post round kind = rev_post := { Report.round; kind } :: !rev_post in
    Engine.iter ~rng:(fresh_rng ()) config wrapped inst
      (fun { Engine.round; position; clamped = c; cost; _ } ->
        positions.(round) <- position;
        total := Cost.add !total cost;
        if c then incr clamped;
        if not (is_finite_vec position) then post round Report.Non_finite_position;
        if
          not
            (Float.is_finite cost.Cost.move && Float.is_finite cost.Cost.service)
        then post round Report.Non_finite_cost
        else if cost.Cost.move < 0.0 || cost.Cost.service < 0.0 then
          post round Report.Negative_cost);
    let engine_run =
      {
        Engine.algorithm = alg.Algorithm.name;
        config;
        positions;
        cost = !total;
        clamped = !clamped;
      }
    in
    let determinism =
      if not check_determinism then []
      else begin
        let replay = Engine.run ~rng:(fresh_rng ()) config alg inst in
        match trajectory_divergence positions replay.Engine.positions with
        | None -> []
        | Some (round, coord) ->
          [ { Report.round; kind = Report.Nondeterministic { coord } } ]
      end
    in
    let all =
      List.stable_sort
        (fun a b -> Int.compare a.Report.round b.Report.round)
        (violations recorder @ List.rev !rev_post @ determinism)
    in
    let report =
      {
        Report.algorithm = alg.Algorithm.name;
        rounds = t_len;
        clamped = !clamped;
        determinism_checked = check_determinism;
        violations = all;
      }
    in
    (report, engine_run)
end

(* --- Unit tests ------------------------------------------------------ *)

let audit_clean_mtc () =
  let config = Config.make ~d_factor:2.0 ~delta:0.5 () in
  let inst = instance_of_lists [ [ 5.0 ]; [ -3.0 ]; [ 8.0 ]; [ 0.0 ] ] in
  let report, run = Audit.run config Mobile_server.Mtc.algorithm inst in
  Alcotest.(check bool) "ok" true (Report.ok report);
  Alcotest.(check int) "no clamping" 0 report.Report.clamped;
  Alcotest.(check bool) "determinism ran" true
    report.Report.determinism_checked;
  (* Auditing must not perturb the run itself. *)
  let plain = Engine.run config Mobile_server.Mtc.algorithm inst in
  Array.iteri
    (fun t p ->
      Alcotest.(check bool)
        (Printf.sprintf "round %d unchanged" t)
        true
        (Vec.equal ~eps:0.0 p plain.Engine.positions.(t)))
    run.Engine.positions;
  check_float "cost unchanged"
    (Mobile_server.Cost.total plain.Engine.cost)
    (Mobile_server.Cost.total run.Engine.cost)

let audit_flags_oversized_moves () =
  let config = Config.make ~delta:0.5 () in
  let inst = instance_of_lists [ [ 0.0 ]; [ 0.0 ]; [ 0.0 ] ] in
  let report, run = Audit.run config overstepper inst in
  Alcotest.(check bool) "not ok" false (Report.ok report);
  Alcotest.(check int) "engine clamped every round" 3 run.Engine.clamped;
  Alcotest.(check int) "one clamp violation per round" 3
    (Report.count report ~kind:Report.is_clamped);
  match report.Report.violations with
  | { Report.round = 0; kind = Report.Clamped_proposal { distance; limit } }
    :: _ ->
    check_float "limit is the online budget" 1.5 limit;
    check_float "distance is the proposal's" 3.0 distance
  | _ -> Alcotest.fail "expected a Clamped_proposal at round 0"

let audit_flags_nan () =
  let config = Config.make () in
  let inst = instance_of_lists [ [ 1.0 ]; [ 1.0 ] ] in
  let report, _run = Audit.run config nan_proposer inst in
  Alcotest.(check bool) "not ok" false (Report.ok report);
  Alcotest.(check int) "nan proposal every round" 2
    (Report.count report ~kind:(fun k -> k = Report.Non_finite_proposal));
  Alcotest.(check bool) "positions poisoned" true
    (Report.count report ~kind:(fun k -> k = Report.Non_finite_position) > 0);
  Alcotest.(check bool) "costs poisoned" true
    (Report.count report ~kind:(fun k -> k = Report.Non_finite_cost) > 0);
  (* Deterministically NaN is still deterministic. *)
  Alcotest.(check int) "no nondeterminism" 0
    (Report.count report ~kind:Report.is_nondeterministic)

(* An infinite proposal from a finite position is non-finite, not
   clamped: the engine poisons the position instead of clamping it, so
   the clamp count equals the number of Clamped_proposal entries. *)
let audit_inf_not_clamped () =
  let config = Config.make () in
  let inst = instance_of_lists [ [ 1.0 ]; [ 1.0 ] ] in
  let report, run = Audit.run config inf_proposer inst in
  Alcotest.(check int) "infinite proposal every round" 2
    (Report.count report ~kind:(fun k -> k = Report.Non_finite_proposal));
  Alcotest.(check int) "report clamped" 0 report.Report.clamped;
  Alcotest.(check int) "engine clamped" 0 run.Engine.clamped;
  Alcotest.(check int) "no Clamped_proposal" 0
    (Report.count report ~kind:Report.is_clamped)

(* Once a proposal is non-finite the engine's position is NaN: later
   far proposals poison nothing further and are clamped by no budget
   test, so the report holds no clamp after that round. *)
let audit_nan_once () =
  let config = Config.make () in
  let inst = instance_of_lists (List.init 6 (fun _ -> [ 0.0 ])) in
  let report, run = Audit.run config nan_once inst in
  let at round kind =
    List.exists
      (fun v -> v.Report.round = round && kind v.Report.kind)
      report.Report.violations
  in
  Alcotest.(check bool) "non-finite proposal at round 2" true
    (at 2 (fun k -> k = Report.Non_finite_proposal));
  for t = 3 to 5 do
    Alcotest.(check bool)
      (Printf.sprintf "non-finite position at round %d" t)
      true
      (at t (fun k -> k = Report.Non_finite_position));
    Alcotest.(check bool) (Printf.sprintf "no clamp at round %d" t) false
      (at t Report.is_clamped)
  done;
  Alcotest.(check int) "engine clamped rounds 0 and 1" 2 run.Engine.clamped;
  Alcotest.(check int) "both clamps reported" 2
    (Report.count report ~kind:Report.is_clamped)

let audit_flags_nondeterminism () =
  let config = Config.make () in
  let inst = instance_of_lists [ [ 0.0 ]; [ 0.0 ] ] in
  let report, _run = Audit.run config (nondeterministic ()) inst in
  Alcotest.(check int) "nondeterminism reported" 1
    (Report.count report ~kind:Report.is_nondeterministic);
  match
    List.find_opt
      (fun v -> Report.is_nondeterministic v.Report.kind)
      report.Report.violations
  with
  | Some { Report.round = 0; _ } -> ()
  | Some v ->
    Alcotest.failf "divergence reported at round %d, expected 0"
      v.Report.round
  | None -> Alcotest.fail "missing Nondeterministic violation"

let audit_skips_determinism_on_request () =
  let config = Config.make () in
  let inst = instance_of_lists [ [ 0.0 ] ] in
  let report, _ =
    Audit.run ~check_determinism:false config (nondeterministic ()) inst
  in
  Alcotest.(check bool) "flag recorded" false
    report.Report.determinism_checked;
  Alcotest.(check int) "no nondeterminism reported" 0
    (Report.count report ~kind:Report.is_nondeterministic)

let report_rendering () =
  let config = Config.make ~delta:0.5 () in
  let inst = instance_of_lists [ [ 0.0 ] ] in
  let report, _ = Audit.run config overstepper inst in
  let text = Format.asprintf "%a" Report.pp report in
  let contains needle hay =
    let nh = String.length hay and nn = String.length needle in
    let rec scan i = i + nn <= nh && (String.sub hay i nn = needle || scan (i + 1)) in
    nn = 0 || scan 0
  in
  Alcotest.(check bool) "mentions verdict" true
    (contains "VIOLATIONS FOUND" text);
  Alcotest.(check bool) "mentions clamp" true (contains "clamped" text);
  Alcotest.(check bool) "summary verdict" true
    (contains "FAILED" (Report.summary report));
  let clean, _ = Audit.run config Mobile_server.Mtc.algorithm inst in
  Alcotest.(check bool) "clean summary" true
    (contains "audit ok" (Report.summary clean))

(* --- QCheck properties ----------------------------------------------- *)

let small_instance_gen =
  QCheck.Gen.(
    let coord = float_range (-20.0) 20.0 in
    int_range 1 3 >>= fun dim ->
    let point = array_size (return dim) coord in
    let round = array_size (int_range 0 3) point in
    array_size (int_range 1 10) round >|= fun steps ->
    Instance.make ~start:(Vec.zero dim) steps)

let arbitrary_instance =
  QCheck.make ~print:(fun i -> Format.asprintf "%a" Instance.pp i)
    small_instance_gen

let qcheck_well_behaved_algorithms_audit_clean =
  QCheck.Test.make ~count:60
    ~name:"registry algorithms produce zero violations and zero clamps"
    arbitrary_instance
    (fun inst ->
      let config = Config.make ~d_factor:2.0 ~move_limit:0.8 ~delta:0.4 () in
      let dim = Instance.dim inst in
      List.for_all
        (fun alg ->
          let report, run = Audit.run ~seed:11 config alg inst in
          Report.ok report && run.Engine.clamped = 0)
        (Baselines.Registry.all ~dim))

let qcheck_audit_preserves_trajectory =
  QCheck.Test.make ~count:60
    ~name:"auditing changes neither trajectory nor cost"
    arbitrary_instance
    (fun inst ->
      let config = Config.make ~d_factor:3.0 ~delta:0.25 () in
      let _report, audited =
        Audit.run ~seed:3 config Mobile_server.Mtc.algorithm inst
      in
      let plain = Engine.run config Mobile_server.Mtc.algorithm inst in
      Array.for_all2
        (fun a b -> Vec.equal ~eps:0.0 a b)
        audited.Engine.positions plain.Engine.positions
      && Float.equal
           (Mobile_server.Cost.total audited.Engine.cost)
           (Mobile_server.Cost.total plain.Engine.cost))

let qcheck_overstepper_every_round_flagged =
  QCheck.Test.make ~count:60
    ~name:"a 2·(1+δ)m proposer is flagged every round"
    arbitrary_instance
    (fun inst ->
      let config = Config.make ~delta:0.3 () in
      let report, run = Audit.run config overstepper inst in
      let t = Instance.length inst in
      run.Engine.clamped = t
      && Report.count report ~kind:Report.is_clamped = t
      && not (Report.ok report))

let qcheck_nan_proposer_flagged =
  QCheck.Test.make ~count:60 ~name:"a NaN proposer is flagged every round"
    arbitrary_instance
    (fun inst ->
      let config = Config.make () in
      let report, _run = Audit.run config nan_proposer inst in
      Report.count report ~kind:(fun k -> k = Report.Non_finite_proposal)
      = Instance.length inst)

(* --- Audit.run = reference ------------------------------------------ *)

let bits = Int64.bits_of_float

let vec_bits v =
  String.concat " "
    (List.map (fun x -> Printf.sprintf "%Lx" (bits x)) (Array.to_list v))

(* Everything an audit returns, floats as IEEE bits, one line each. *)
let audit_lines ((report : Report.t), (run : Engine.run)) =
  let violation { Report.round; kind } =
    match kind with
    | Report.Clamped_proposal { distance; limit } ->
      Printf.sprintf "round %d: clamped %Lx > %Lx" round (bits distance)
        (bits limit)
    | kind -> Format.asprintf "round %d: %a" round Report.pp_kind kind
  in
  let cost = run.Engine.cost in
  Printf.sprintf "%s rounds %d clamped %d/%d determinism %b"
    report.Report.algorithm report.Report.rounds report.Report.clamped
    run.Engine.clamped report.Report.determinism_checked
  :: Printf.sprintf "cost %Lx %Lx"
       (bits cost.Mobile_server.Cost.move)
       (bits cost.Mobile_server.Cost.service)
  :: List.map vec_bits (Array.to_list run.Engine.positions)
  @ List.map violation report.Report.violations

(* The one report that changes on purpose: once a proposal is
   non-finite the engine's position is NaN and it clamps nothing more,
   but the reference keeps measuring later proposals from its last
   finite point and may still report Clamped_proposal.  Both sides drop
   those entries here; the "nan once" unit test pins that [Audit.run]
   reports none. *)
let without_clamps_after_nan ((report : Report.t), run) =
  let vs = report.Report.violations in
  match
    List.find_opt (fun v -> v.Report.kind = Report.Non_finite_proposal) vs
  with
  | None -> (report, run)
  | Some first ->
    let keep v =
      not
        (Report.is_clamped v.Report.kind
        && v.Report.round > first.Report.round)
    in
    ({ report with Report.violations = List.filter keep vs }, run)

(* d 1-3, empty rounds, random D, m, δ and variant. *)
let audit_case_gen =
  QCheck.Gen.(
    small_instance_gen >>= fun inst ->
    float_range 1.0 4.0 >>= fun d_factor ->
    float_range 0.05 3.0 >>= fun move_limit ->
    float_range 0.0 1.0 >>= fun delta ->
    oneofl Mobile_server.Variant.[ Move_first; Serve_first ] >>= fun variant ->
    small_nat >|= fun seed ->
    (inst, Config.make ~d_factor ~move_limit ~delta ~variant (), seed))

let qcheck_audit_matches_reference =
  QCheck.Test.make ~count:1000
    ~name:"Audit.run = wrap-based reference (bitwise)"
    (QCheck.make
       ~print:(fun (inst, config, seed) ->
         Format.asprintf "seed %d, %a@.%a" seed Config.pp config Instance.pp
           inst)
       audit_case_gen)
    (fun (inst, config, seed) ->
      let lines audit = audit_lines (without_clamps_after_nan audit) in
      let matches fresh =
        let got = lines (Audit.run ~seed config (fresh ()) inst)
        and want = lines (Reference.run ~seed config (fresh ()) inst) in
        List.equal String.equal got want
        || QCheck.Test.fail_reportf "audits differ:@.got  %s@.want %s"
             (String.concat "\n     " got)
             (String.concat "\n     " want)
      in
      List.for_all
        (fun alg -> matches (fun () -> alg))
        (Baselines.Registry.all ~dim:(Instance.dim inst)
        @ [ overstepper; teleport; nan_proposer ])
      && matches nondeterministic)

let () =
  Alcotest.run "analysis"
    [
      ( "audit",
        [
          Alcotest.test_case "clean mtc" `Quick audit_clean_mtc;
          Alcotest.test_case "oversized moves" `Quick
            audit_flags_oversized_moves;
          Alcotest.test_case "nan" `Quick audit_flags_nan;
          Alcotest.test_case "nan once" `Quick audit_nan_once;
          Alcotest.test_case "infinity is not a clamp" `Quick
            audit_inf_not_clamped;
          Alcotest.test_case "nondeterminism" `Quick
            audit_flags_nondeterminism;
          Alcotest.test_case "determinism opt-out" `Quick
            audit_skips_determinism_on_request;
        ] );
      ( "report", [ Alcotest.test_case "rendering" `Quick report_rendering ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_well_behaved_algorithms_audit_clean;
            qcheck_audit_preserves_trajectory;
            qcheck_overstepper_every_round_flagged;
            qcheck_nan_proposer_flagged;
            qcheck_audit_matches_reference;
          ] );
    ]
