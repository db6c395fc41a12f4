module Vec = Geometry.Vec
module Algorithm = Mobile_server.Algorithm
module Config = Mobile_server.Config
module Cost = Mobile_server.Cost
module Engine = Mobile_server.Engine
module Instance = Mobile_server.Instance

let is_finite_vec v = Array.for_all Float.is_finite v

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

let run ?(seed = 0) ?(check_determinism = true) config alg inst =
  let fresh_rng () = Prng.Stream.named ~name:"audit" ~seed in
  let limit = Config.online_limit config in
  let t_len = Instance.length inst in
  let positions = Array.make t_len inst.Instance.start in
  let from = ref inst.Instance.start in
  let total = ref Cost.zero in
  let clamped = ref 0 in
  let rev_found = ref [] in
  let post round kind = rev_found := { Report.round; kind } :: !rev_found in
  Engine.iter ~rng:(fresh_rng ()) config alg inst
    (fun { Engine.round; position; proposed; clamped = c; cost } ->
      (* The engine measured [proposed] from the previous round's
         position and set [c] only if it clamped a finite proposal
         from a finite position.  A non-finite proposal is reported as
         such; after it the position is NaN and [c] stays false. *)
      if not (is_finite_vec proposed) then
        post round Report.Non_finite_proposal
      else if c then begin
        let distance = Vec.dist !from proposed in
        post round (Report.Clamped_proposal { distance; limit })
      end;
      from := position;
      positions.(round) <- position;
      total := Cost.add !total cost;
      if c then incr clamped;
      if not (is_finite_vec position) then
        post round Report.Non_finite_position;
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
      (List.rev_append !rev_found determinism)
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
