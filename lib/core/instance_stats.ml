module Vec = Geometry.Vec

type t = {
  rounds : int;
  dim : int;
  total_requests : int;
  r_min : int;
  r_max : int;
  empty_rounds : int;
  mean_drift : float;
  max_drift : float;
  spread : float;
  hull_radius : float;
}

let compute (inst : Instance.t) =
  let rounds = Instance.length inst in
  let r_min, r_max = Instance.request_bounds inst in
  let empty_rounds = ref 0 in
  let drift_sum = ref 0.0 and drift_count = ref 0 and max_drift = ref 0.0 in
  let spread_sum = ref 0.0 and spread_rounds = ref 0 in
  let hull_radius = ref 0.0 in
  let prev_centroid = ref None in
  Array.iter
    (fun round ->
      if Array.length round = 0 then incr empty_rounds
      else begin
        let c = Vec.centroid round in
        (match !prev_centroid with
         | Some p ->
           let d = Vec.dist p c in
           drift_sum := !drift_sum +. d;
           incr drift_count;
           if d > !max_drift then max_drift := d
         | None -> ());
        prev_centroid := Some c;
        let round_spread =
          Array.fold_left (fun acc v -> acc +. Vec.dist c v) 0.0 round
          /. float_of_int (Array.length round)
        in
        spread_sum := !spread_sum +. round_spread;
        incr spread_rounds;
        Array.iter
          (fun v ->
            let d = Vec.dist inst.Instance.start v in
            if d > !hull_radius then hull_radius := d)
          round
      end)
    inst.Instance.steps;
  {
    rounds;
    dim = Instance.dim inst;
    total_requests = Instance.total_requests inst;
    r_min;
    r_max;
    empty_rounds = !empty_rounds;
    mean_drift =
      (if !drift_count = 0 then 0.0
       else !drift_sum /. float_of_int !drift_count);
    max_drift = !max_drift;
    spread =
      (if !spread_rounds = 0 then 0.0
       else !spread_sum /. float_of_int !spread_rounds);
    hull_radius = !hull_radius;
  }

let regime ~move_limit stats =
  if move_limit <= 0.0 then invalid_arg "Instance_stats.regime: move_limit <= 0";
  if stats.total_requests = 0 then "empty instance"
  else if stats.r_min = 1 && stats.r_max = 1 then
    if
      stats.max_drift
      <= move_limit +. (Config.budget_slack *. Float.max 1.0 move_limit)
    then
      "moving-client, agent no faster than the server (Theorem 10 regime: \
       O(1) without augmentation)"
    else
      "moving-client, agent faster than the server (Theorem 8 regime: \
       unbounded ratio without augmentation)"
  else if stats.mean_drift > move_limit then
    "request cloud outruns the server (augmentation essential)"
  else if stats.r_max > stats.r_min then
    Printf.sprintf
      "varying request counts (Rmax/Rmin = %d/%d enters the Theorem 4 \
       bound)" stats.r_max stats.r_min
  else "fixed request count, bounded drift (Theorem 4 regime)"
