[@@@no_boxed_floats]

module Vec = Geometry.Vec

type stepper = Vec.t array -> Vec.t

type t = {
  name : string;
  make : ?rng:Prng.Xoshiro.t -> Config.t -> start:Vec.t -> stepper;
}

let of_policy ~name f =
  let make ?rng:_ config ~start =
    let pos = ref (Vec.copy start) in
    let limit = Config.online_limit config in
    fun requests ->
      let target = f config ~server:!pos requests in
      let next = Vec.clamp_step ~from:!pos limit target in
      pos := next;
      next
  in
  { name; make }

let stay_put =
  of_policy ~name:"stay-put" (fun _config ~server _requests -> server)
