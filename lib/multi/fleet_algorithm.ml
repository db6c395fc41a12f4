module Vec = Geometry.Vec
module Config = Mobile_server.Config

type stepper = Vec.t array -> Vec.t array

type t = {
  name : string;
  make : ?rng:Prng.Xoshiro.t -> Config.t -> start:Vec.t array -> stepper;
}

let of_policy ~name f =
  let make ?rng:_ config ~start =
    let fleet = ref (Array.map Vec.copy start) in
    let limit = Config.online_limit config in
    fun requests ->
      let target = f config ~fleet:!fleet requests in
      if Array.length target <> Array.length !fleet then
        invalid_arg (name ^ ": policy changed the fleet size");
      let next = Fleet.clamp ~limit ~from:!fleet target in
      fleet := next;
      next
  in
  { name; make }

let stay_put =
  of_policy ~name:"fleet-stay-put" (fun _config ~fleet _requests -> fleet)

let partition_requests ~fleet requests =
  let k = Array.length fleet in
  if k = 0 then invalid_arg "Fleet_algorithm.partition_requests: empty fleet";
  let buckets = Array.make k [] in
  Array.iter
    (fun req ->
      let best = ref 0 and best_d = ref (Vec.dist fleet.(0) req) in
      for i = 1 to k - 1 do
        let d = Vec.dist fleet.(i) req in
        if d < !best_d then begin
          best := i;
          best_d := d
        end
      done;
      buckets.(!best) <- req :: buckets.(!best))
    requests;
  (* Restore arrival order within each bucket so that a k = 1 fleet is
     bit-for-bit identical to the single-server algorithms. *)
  Array.map List.rev buckets
