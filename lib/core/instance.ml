module Vec = Geometry.Vec

type t = { start : Vec.t; steps : Vec.t array array }

let make ~start steps =
  let d = Vec.dim start in
  Array.iteri
    (fun t round ->
      Array.iter
        (fun v ->
          if Vec.dim v <> d then
            invalid_arg
              (Printf.sprintf
                 "Instance.make: request in round %d has dimension %d, \
                  expected %d" t (Vec.dim v) d))
        round)
    steps;
  {
    start = Vec.copy start;
    steps = Array.map (fun round -> Array.map Vec.copy round) steps;
  }

module Packed = struct
  type t = {
    start : Vec.t;
    points : Geometry.Points.t;  (* all requests, rounds concatenated *)
    offsets : int array;  (* length T+1; round t is points [offsets.(t),
                             offsets.(t+1)) *)
    mutable digest : string option;
        (* memoized MD5 of [serialize] — a packed instance is immutable
           after [pack], so the digest is computed at most once per
           value.  Unsynchronized on purpose: racing domains can only
           store the same immutable string (pointer stores are atomic
           words), so the benign race never yields a wrong digest. *)
  }

  let dim p = Vec.dim p.start

  let length p = Array.length p.offsets - 1

  let total_requests p = p.offsets.(Array.length p.offsets - 1)

  let start p = p.start

  let points p = p.points

  let round_start p t = p.offsets.(t)

  let round_length p t = p.offsets.(t + 1) - p.offsets.(t)

  (* Deterministic byte serialization for content addressing: ints and
     float bit patterns, little-endian, no textual formatting anywhere
     — two packed instances serialize equally iff every coordinate is
     bit-identical. *)
  let serialize p =
    let data = Geometry.Points.raw p.points in
    let n_data = Geometry.Fbuf.length data in
    let buf =
      Buffer.create
        (8 * (3 + Array.length p.offsets + Vec.dim p.start + n_data))
    in
    let add_int n = Buffer.add_int64_le buf (Int64.of_int n) in
    let add_float f = Buffer.add_int64_le buf (Int64.bits_of_float f) in
    add_int (dim p);
    add_int (length p);
    add_int (total_requests p);
    Array.iter add_int p.offsets;
    Array.iter add_float p.start;
    for i = 0 to n_data - 1 do
      add_float (Geometry.Fbuf.get data i)
    done;
    Buffer.contents buf

  (* Content digest for cache keys: MD5 of [serialize], computed once
     per value.  Keying by the digest instead of the bytes lets warm
     cache hits skip re-serializing the instance entirely. *)
  let content_digest p =
    match p.digest with
    | Some d -> d
    | None ->
      let d = Digest.string (serialize p) in
      p.digest <- Some d;
      d
end

let pack inst =
  let d = Vec.dim inst.start in
  let t_len = Array.length inst.steps in
  let offsets = Array.make (t_len + 1) 0 in
  for t = 0 to t_len - 1 do
    offsets.(t + 1) <- offsets.(t) + Array.length inst.steps.(t)
  done;
  let points = Geometry.Points.create ~dim:d offsets.(t_len) in
  Array.iteri
    (fun t round ->
      Array.iteri
        (fun i v -> Geometry.Points.set points (offsets.(t) + i) v)
        round)
    inst.steps;
  { Packed.start = Vec.copy inst.start; points; offsets; digest = None }

let dim inst = Vec.dim inst.start

let length inst = Array.length inst.steps

let total_requests inst =
  Array.fold_left (fun acc round -> acc + Array.length round) 0 inst.steps

let request_bounds inst =
  if Array.length inst.steps = 0 then (0, 0)
  else
    Array.fold_left
      (fun (lo, hi) round ->
        let r = Array.length round in
        (Stdlib.min lo r, Stdlib.max hi r))
      (max_int, 0) inst.steps

let single_trajectory inst =
  if Array.for_all (fun round -> Array.length round = 1) inst.steps then
    Some (Array.map (fun round -> round.(0)) inst.steps)
  else None

let is_moving_client ~speed inst =
  match single_trajectory inst with
  | None -> false
  | Some agent ->
    let reach = speed +. (Config.budget_slack *. Float.max 1.0 speed) in
    let ok = ref true in
    let prev = ref inst.start in
    Array.iter
      (fun a ->
        if Vec.dist !prev a > reach then ok := false;
        prev := a)
      agent;
    !ok

let pp ppf inst =
  let lo, hi = request_bounds inst in
  Format.fprintf ppf "instance{dim=%d; T=%d; requests=%d; R∈[%d,%d]}"
    (dim inst) (length inst) (total_requests inst) lo hi
