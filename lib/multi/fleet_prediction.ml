module Vec = Geometry.Vec
module Config = Mobile_server.Config
module Instance = Mobile_server.Instance

(* Follow-the-Prediction (the exemplar's [ftp_solver] +
   [generate_prediction_list]): an oracle hands the algorithm one
   predicted fleet per round; the algorithm walks toward it at online
   speed.  Predictions are generated from the greedy relaxation
   trajectory — each request pulls its nearest server onto itself —
   perturbed by seeded per-coordinate Gaussian noise, so prediction
   quality degrades continuously with [sigma] and every list is a pure
   function of [(k, sigma, seed, instance)]. *)

let generate ~k ?(sigma = 0.0) ~seed (inst : Instance.t) =
  if k < 1 then invalid_arg "Fleet_prediction.generate: k < 1";
  if sigma < 0.0 then invalid_arg "Fleet_prediction.generate: sigma < 0";
  let rng = Prng.Stream.named ~name:"fleet-predict" ~seed in
  let fleet = ref (Fleet.spread_start ~k inst.Instance.start) in
  Array.map
    (fun requests ->
      let next = Array.map Vec.copy !fleet in
      Array.iter
        (fun req ->
          let best = ref 0 and best_d = ref (Vec.dist next.(0) req) in
          for i = 1 to k - 1 do
            let d = Vec.dist next.(i) req in
            if d < !best_d then begin
              best := i;
              best_d := d
            end
          done;
          next.(!best) <- Vec.copy req)
        requests;
      fleet := next;
      if Float.equal sigma 0.0 then Array.map Vec.copy next
      else
        Array.map
          (fun p ->
            Array.map (fun x -> Prng.Dist.gaussian rng ~mu:x ~sigma) p)
          next)
    inst.Instance.steps

let follow ~predictions =
  {
    Fleet_algorithm.name = "fleet-ftp";
    make =
      (fun ?rng:_ (config : Config.t) ~start ->
        let fleet = ref (Array.map Vec.copy start) in
        let limit = Config.online_limit config in
        let round = ref 0 in
        fun _requests ->
          let target =
            if !round < Array.length predictions then predictions.(!round)
            else !fleet
          in
          incr round;
          if Array.length target <> Array.length !fleet then
            invalid_arg "fleet-ftp: prediction fleet size mismatch";
          let next = Fleet.clamp ~limit ~from:!fleet target in
          fleet := next;
          next);
  }

let algorithm ~k ?sigma ~seed inst =
  follow ~predictions:(generate ~k ?sigma ~seed inst)
