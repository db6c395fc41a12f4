[@@@no_boxed_floats]

module Vec = Geometry.Vec
module Median = Geometry.Median

let center ~server requests =
  if Array.length requests = 0 then Vec.copy server
  else Median.center ~server requests

(* The rule's move for a round of [r] requests: [min {1, r/D}] of the
   way from [server] to the center [c], the gap measured once. *)
let target_with ~center_fn (config : Config.t) ~server requests =
  let r = Array.length requests in
  if r = 0 then Vec.copy server
  else begin
    let c = center_fn ~server requests in
    let pull = Float.min 1.0 (float_of_int r /. config.d_factor) in
    let gap = Vec.dist server c in
    Vec.move_towards_gap server c ~gap (pull *. gap)
  end

let target config ~server requests =
  target_with ~center_fn:center config ~server requests

let with_center ~name center_fn =
  Algorithm.of_policy ~name (fun config ~server requests ->
      target_with ~center_fn config ~server requests)

let algorithm = with_center ~name:"mtc" center

let mean_variant =
  let mean ~server requests =
    if Array.length requests = 0 then Vec.copy server
    else Median.mean_center ~server requests
  in
  with_center ~name:"mtc-mean" mean
