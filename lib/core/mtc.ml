[@@@no_boxed_floats]

module Vec = Geometry.Vec
module Median = Geometry.Median

let center ~server requests =
  if Array.length requests = 0 then Vec.copy server
  else Median.center ~server requests

(* The rule's move for a round of [r] requests: [min {1, r/D}] of the
   way from [server] to the center [c], the gap measured once. *)
let towards_center (config : Config.t) ~server ~r c =
  let pull = Float.min 1.0 (float_of_int r /. config.d_factor) in
  let gap = Vec.dist server c in
  Vec.move_towards_gap server c ~gap (pull *. gap)

let target_with ~center_fn config ~server requests =
  let r = Array.length requests in
  if r = 0 then Vec.copy server
  else towards_center config ~server ~r (center_fn ~server requests)

let target config ~server requests =
  target_with ~center_fn:center config ~server requests

let with_center ~name center_fn =
  Algorithm.of_policy ~name (fun config ~server requests ->
      target_with ~center_fn config ~server requests)

(* Warm-started stepper: identical to the [of_policy] path except that
   the previous round's center seeds the next round's Weiszfeld
   iteration.  Only selected when [config.warm_start] is set — the
   default path is the exact historical code, so default runs stay
   byte-identical to the seed trajectories. *)
let warm_make (config : Config.t) ~start =
  let pos = ref (Vec.copy start) in
  let limit = Config.online_limit config in
  let prev_center = ref None in
  fun requests ->
    let target =
      let r = Array.length requests in
      if r = 0 then Vec.copy !pos
      else begin
        (* [Median.center] returns a vector it owns, so holding it
           across rounds is safe. *)
        let c = Median.center ?init:!prev_center ~server:!pos requests in
        prev_center := Some c;
        towards_center config ~server:!pos ~r c
      end
    in
    let next = Vec.clamp_step ~from:!pos limit target in
    pos := next;
    next

let algorithm =
  let cold = with_center ~name:"mtc" center in
  let make ?rng config ~start =
    if config.Config.warm_start then warm_make config ~start
    else cold.Algorithm.make ?rng config ~start
  in
  { Algorithm.name = "mtc"; make }

let mean_variant =
  let mean ~server requests =
    if Array.length requests = 0 then Vec.copy server
    else Median.mean_center ~server requests
  in
  with_center ~name:"mtc-mean" mean
