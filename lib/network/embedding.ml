module Vec = Geometry.Vec

let node_point layout v =
  if v < 0 || v >= Array.length layout then
    invalid_arg "Embedding: node has no layout entry";
  Vec.copy layout.(v)

let to_mobile_instance ~layout (inst : Pm_model.instance) =
  Mobile_server.Instance.make
    ~start:(node_point layout inst.Pm_model.start)
    (Array.map
       (fun round -> Array.map (node_point layout) round)
       inst.Pm_model.rounds)

let round_trip_gap ~metric ~layout =
  let n = Dijkstra.size metric in
  if n > Array.length layout then
    invalid_arg "Embedding.round_trip_gap: layout too small";
  let worst = ref 0.0 in
  for u = 0 to n - 1 do
    let row, base = Dijkstra.row metric u in
    for v = u + 1 to n - 1 do
      let graph_d = Geometry.Fbuf.get row (base + v) in
      let euclid_d = Vec.dist layout.(u) layout.(v) in
      if euclid_d > 1e-12 then begin
        let gap = (graph_d -. euclid_d) /. euclid_d in
        if gap > !worst then worst := gap
      end
    done
  done;
  !worst
