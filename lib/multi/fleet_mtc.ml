module Vec = Geometry.Vec
module Config = Mobile_server.Config
module Median = Geometry.Median

(* The single-server MtC rule applied to one bucket. *)
let mtc_step (config : Config.t) server bucket =
  match bucket with
  | [] -> Vec.copy server
  | _ :: _ ->
    let requests = Array.of_list bucket in
    Mobile_server.Mtc.target config ~server requests

let independent =
  Fleet_algorithm.of_policy ~name:"fleet-mtc" (fun config ~fleet requests ->
      let buckets = Fleet_algorithm.partition_requests ~fleet requests in
      Array.mapi (fun i server -> mtc_step config server buckets.(i)) fleet)

let greedy_partition =
  Fleet_algorithm.of_policy ~name:"fleet-greedy" (fun _config ~fleet requests ->
      let buckets = Fleet_algorithm.partition_requests ~fleet requests in
      Array.mapi
        (fun i server ->
          match buckets.(i) with
          | [] -> Vec.copy server
          | bucket -> Median.center ~server (Array.of_list bucket))
        fleet)

(* Greedy matching of cluster centers to servers: repeatedly take the
   globally closest (server, center) pair.  k is small, O(k^3) is
   fine. *)
let match_clusters ~fleet centers =
  let k = Array.length fleet in
  let kc = Array.length centers in
  let assigned = Array.make k None in
  let center_taken = Array.make kc false in
  let remaining = ref (Stdlib.min k kc) in
  while !remaining > 0 do
    let best = ref None in
    for i = 0 to k - 1 do
      if assigned.(i) = None then
        for j = 0 to kc - 1 do
          if not center_taken.(j) then begin
            let d = Vec.dist fleet.(i) centers.(j) in
            match !best with
            | Some (_, _, bd) when bd <= d -> ()
            | Some _ | None -> best := Some (i, j, d)
          end
        done
    done;
    (match !best with
     | Some (i, j, _) ->
       assigned.(i) <- Some j;
       center_taken.(j) <- true
     | None -> remaining := 0);
    decr remaining
  done;
  assigned

let kmeans_tracker =
  {
    Fleet_algorithm.name = "fleet-kmeans";
    make =
      (fun ?rng (config : Config.t) ~start ->
        let rng =
          match rng with
          | Some g -> g
          | None -> Prng.Stream.named ~name:"fleet-kmeans" ~seed:0
        in
        let fleet = ref (Array.map Vec.copy start) in
        let limit = Config.online_limit config in
        let k = Array.length start in
        fun requests ->
          let next =
            if Array.length requests = 0 then !fleet
            else begin
              let clustering = Geometry.Kmeans.cluster ~k rng requests in
              (* Group the requests per cluster for per-group medians. *)
              let groups = Array.make k [] in
              Array.iteri
                (fun i req ->
                  let c = clustering.Geometry.Kmeans.assignment.(i) in
                  groups.(c) <- req :: groups.(c))
                requests;
              let assigned =
                match_clusters ~fleet:!fleet
                  clustering.Geometry.Kmeans.centers
              in
              Array.mapi
                (fun i server ->
                  match assigned.(i) with
                  | None -> Vec.copy server
                  | Some j -> mtc_step config server groups.(j))
                !fleet
            end
          in
          let clamped = Fleet.clamp ~limit ~from:!fleet next in
          fleet := clamped;
          clamped);
  }
