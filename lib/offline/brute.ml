module Vec = Geometry.Vec
module Points = Geometry.Points
module Config = Mobile_server.Config
module Instance = Mobile_server.Instance
module Variant = Mobile_server.Variant

(* Shared value-iteration skeleton over an arbitrary finite state set.
   [points] are the candidate positions, [start_idx] the initial state.
   Requests are read from the flat packed buffer; the per-round service
   table is solver-level scratch ([Points.sum_dist] matches the boxed
   [Cost.service_cost] fold bit for bit, so this is the same iteration
   the boxed version ran). *)
let value_iteration (config : Config.t) (p : Instance.Packed.t) points
    start_idx =
  let t_len = Instance.Packed.length p in
  let m = Config.offline_limit config in
  let reach = m +. (Config.budget_slack *. Float.max 1.0 m) in
  let n = Array.length points in
  let reqs = Instance.Packed.points p in
  let serve_first = Variant.equal config.Config.variant Variant.Serve_first in
  let value = Array.make n infinity in
  value.(start_idx) <- 0.0;
  let next = Array.make n 0.0 in
  let service = Array.make n 0.0 in
  for t = 0 to t_len - 1 do
    let lo = Instance.Packed.round_start p t in
    let hi = Instance.Packed.round_start p (t + 1) in
    for k = 0 to n - 1 do
      service.(k) <- Points.sum_dist reqs ~lo ~hi points.(k)
    done;
    for k = 0 to n - 1 do
      let best = ref infinity in
      for j = 0 to n - 1 do
        if Float.is_finite value.(j) then begin
          let d = Vec.dist points.(j) points.(k) in
          if d <= reach then begin
            let c =
              value.(j)
              +. (config.Config.d_factor *. d)
              +. (if serve_first then service.(j) else service.(k))
            in
            if c < !best then best := c
          end
        end
      done;
      next.(k) <- !best
    done;
    Array.blit next 0 value 0 n
  done;
  Array.fold_left Float.min infinity value

let hull_1d (p : Instance.Packed.t) =
  let start = (Instance.Packed.start p).(0) in
  let data = Points.raw (Instance.Packed.points p) in
  let lo = ref start and hi = ref start in
  for i = 0 to Instance.Packed.total_requests p - 1 do
    let x = Geometry.Fbuf.get data i in
    if x < !lo then lo := x;
    if x > !hi then hi := x
  done;
  (!lo, !hi)

let grid_1d ~cells config inst =
  let p = Instance.pack inst in
  if Instance.Packed.dim p <> 1 then invalid_arg "Brute.grid_1d: not 1-D";
  if Instance.Packed.length p = 0 then
    invalid_arg "Brute.grid_1d: empty instance";
  if cells < 2 then invalid_arg "Brute.grid_1d: cells < 2";
  let lo, hi = hull_1d p in
  let width = Float.max (hi -. lo) 1e-9 in
  let points =
    Array.init cells (fun i ->
        [| lo +. (width *. float_of_int i /. float_of_int (cells - 1)) |])
  in
  (* Snap the closest grid point onto the exact start position. *)
  let start = (Instance.Packed.start p).(0) in
  let start_idx = ref 0 in
  Array.iteri
    (fun i q ->
      if Float.abs (q.(0) -. start) < Float.abs (points.(!start_idx).(0) -. start)
      then start_idx := i)
    points;
  points.(!start_idx) <- [| start |];
  value_iteration config p points !start_idx

let grid_2d ~cells_per_axis config inst =
  let p = Instance.pack inst in
  if Instance.Packed.dim p <> 2 then invalid_arg "Brute.grid_2d: not 2-D";
  if Instance.Packed.length p = 0 then
    invalid_arg "Brute.grid_2d: empty instance";
  if cells_per_axis < 2 then invalid_arg "Brute.grid_2d: cells_per_axis < 2";
  let start = Instance.Packed.start p in
  let reqs = Instance.Packed.points p in
  let lo = [| start.(0); start.(1) |] and hi = [| start.(0); start.(1) |] in
  for i = 0 to Instance.Packed.total_requests p - 1 do
    for c = 0 to 1 do
      let x = Points.coord reqs i c in
      if x < lo.(c) then lo.(c) <- x;
      if x > hi.(c) then hi.(c) <- x
    done
  done;
  let n = cells_per_axis in
  let coord c i =
    let width = Float.max (hi.(c) -. lo.(c)) 1e-9 in
    lo.(c) +. (width *. float_of_int i /. float_of_int (n - 1))
  in
  let points =
    Array.init (n * n) (fun k -> [| coord 0 (k / n); coord 1 (k mod n) |])
  in
  (* Snap the nearest lattice point onto the start. *)
  let start_idx = ref 0 in
  Array.iteri
    (fun i q ->
      if Vec.dist q start < Vec.dist points.(!start_idx) start then
        start_idx := i)
    points;
  points.(!start_idx) <- Vec.copy start;
  value_iteration config p points !start_idx
