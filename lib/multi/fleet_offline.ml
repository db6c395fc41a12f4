module Vec = Geometry.Vec
module Config = Mobile_server.Config
module Cost = Mobile_server.Cost
module Instance = Mobile_server.Instance

let static_kmeans ~k (config : Config.t) (inst : Instance.t) rng =
  if Instance.length inst = 0 then
    invalid_arg "Fleet_offline.static_kmeans: empty instance";
  let all_requests =
    Array.concat (Array.to_list inst.Instance.steps)
  in
  if Array.length all_requests = 0 then
    invalid_arg "Fleet_offline.static_kmeans: instance has no requests";
  let clustering = Geometry.Kmeans.cluster ~k rng all_requests in
  let centers = clustering.Geometry.Kmeans.centers in
  let k_eff = Array.length centers in
  let m = Config.offline_limit config in
  (* Walk-then-park trajectory: server i heads to centers.(i mod k_eff)
     at full offline speed. *)
  let start = Fleet.spread_start ~k inst.Instance.start in
  let fleet = ref (Array.map Vec.copy start) in
  let fleets =
    Array.map
      (fun _ ->
        let next =
          Array.mapi
            (fun i p -> Vec.move_towards p centers.(i mod k_eff) m)
            !fleet
        in
        fleet := next;
        next)
      inst.Instance.steps
  in
  Cost.total (Fleet_engine.replay config ~start fleets inst)

(* Memoized: the bound does not depend on [k], so callers pricing one
   instance at several [k] solve it once. *)
let single_server config inst =
  Offline.Opt_cache.optimum config (Instance.pack inst)

(* The tie rule of [best_upper], exposed so the regression suite can
   pin it: k-means wins ties, so the label stays stable when the
   single-server bound degenerates to the same cost (e.g. k = 1 with a
   deterministic clustering). *)
let pick ~km ~solo =
  if km <= solo then (km, "static-kmeans") else (solo, "single-server-opt")

let best_upper ~k config inst rng =
  let km = static_kmeans ~k config inst rng in
  let solo = single_server config inst in
  pick ~km ~solo

let optimum ~k config inst rng = fst (best_upper ~k config inst rng)

(* --- exact optimum of the serve-assignment relaxation ---------------- *)

let flatten (inst : Instance.t) =
  Array.concat (Array.to_list inst.Instance.steps)

(* Cache key for [fleet-flow:v1]: everything the relaxation can observe
   — [k], D's IEEE bits and every coordinate of the instance (via its
   content digest).  [move_limit], [delta] and the variant are excluded
   on purpose: the relaxation has no budget and no service term, so
   sweeping them hits the same entries. *)
let flow_key ~k ~d_factor packed =
  let buf = Buffer.create 64 in
  Buffer.add_int64_le buf (Int64.of_int k);
  Buffer.add_int64_le buf (Int64.bits_of_float d_factor);
  Buffer.add_string buf (Instance.Packed.content_digest packed);
  Buffer.contents buf

(* A miss at [k] runs the flow once for every bound from [k] up and
   keeps the larger bounds' optima in memory, so pricing one instance
   at k, k + 1, ... solves it once. *)
let optimum_flow ~k (config : Config.t) inst =
  let packed = Instance.pack inst in
  let solver = "fleet-flow:v1" and d_factor = config.Config.d_factor in
  Offline.Opt_cache.find_or_compute_keyed ~solver
    ~key:(flow_key ~k ~d_factor packed)
    (fun () ->
      let costs =
        Fleet_flow.frontier ~d_factor ~start:inst.Instance.start
          ~requests:(flatten inst) ~k
      in
      for i = 1 to Array.length costs - 1 do
        Offline.Opt_cache.add_keyed ~solver
          ~key:(flow_key ~k:(k + i) ~d_factor packed)
          costs.(i)
      done;
      costs.(0))

let optimum_brute ~k (config : Config.t) inst =
  if k < 1 then invalid_arg "Fleet_offline.optimum_brute: k < 1";
  let requests = flatten inst in
  let n = Array.length requests in
  if n = 0 then 0.0
  else begin
    let states = (float_of_int k) ** float_of_int n in
    if states > 2e6 then
      invalid_arg "Fleet_offline.optimum_brute: instance too large";
    let d_factor = config.Config.d_factor in
    let start = inst.Instance.start in
    (* Enumerate server assignments in lexicographic order; strict [<]
       keeps the lexicographically first argmin, which the canonical
       re-pricing below then prices exactly like the flow solver. *)
    let assign = Array.make n 0 in
    let best_assign = Array.make n 0 in
    let best = ref infinity in
    let last = Array.make k (-1) in
    let rec go j cost =
      if cost >= !best then ()
      else if j = n then begin
        best := cost;
        Array.blit assign 0 best_assign 0 n
      end
      else
        for s = 0 to k - 1 do
          let prev = last.(s) in
          let from = if prev < 0 then start else requests.(prev) in
          let d = d_factor *. Vec.dist from requests.(j) in
          assign.(j) <- s;
          last.(s) <- j;
          go (j + 1) (cost +. d);
          last.(s) <- prev
        done
    in
    go 0 0.0;
    let buckets = Array.make k [] in
    for j = n - 1 downto 0 do
      buckets.(best_assign.(j)) <- j :: buckets.(best_assign.(j))
    done;
    let chains =
      Array.of_list
        (List.filter_map
           (fun l -> if l = [] then None else Some (Array.of_list l))
           (Array.to_list buckets))
    in
    Fleet_flow.price_chains ~d_factor ~start ~requests chains
  end
