type solution = { cost : float; positions : int array }

(* The DP runs on the dense flat table: row bases are hoisted out of
   the inner loops, each round's service-cost vector is computed once
   (not once per predecessor scan), and the O(n) minimization per
   destination column fans out over the Exec pool in fixed node
   blocks.  Blocks write disjoint [value]/[parents] slices, so the
   result is bit-identical at any jobs count — and the arithmetic
   (same table entries, same accumulation order, same strict-[<]
   argmin) matches the historical per-pair [Dijkstra.distance] code
   exactly. *)
let block_size = 32

let solve metric ~d_factor (inst : Pm_model.instance) =
  if d_factor < 1.0 then invalid_arg "Pm_offline.solve: D must be >= 1";
  let t_len = Array.length inst.Pm_model.rounds in
  if t_len = 0 then invalid_arg "Pm_offline.solve: empty instance";
  let flat = Dijkstra.dense_table metric in
  let n = Dijkstra.size metric in
  (* Value + next rows live off-heap ({!Geometry.Fbuf.t}); same IEEE
     values in the same order, so the DP is bit-identical to the boxed
     version. *)
  let value = Geometry.Fbuf.create n in
  Geometry.Fbuf.fill value infinity;
  Geometry.Fbuf.set value inst.Pm_model.start 0.0;
  let parents = Array.make_matrix t_len n 0 in
  let next = Geometry.Fbuf.create n in
  let blocks = (n + block_size - 1) / block_size in
  let block_ids = Array.init blocks Fun.id in
  for t = 0 to t_len - 1 do
    let requests = inst.Pm_model.rounds.(t) in
    let parents_t = parents.(t) in
    let compute_block b =
      let lo = b * block_size in
      let hi = Stdlib.min n (lo + block_size) - 1 in
      for x = lo to hi do
        let base_x = x * n in
        let service = ref 0.0 in
        Array.iter
          (fun v ->
            service := !service +. Geometry.Fbuf.get flat (base_x + v))
          requests;
        let best = ref infinity and best_y = ref 0 in
        (* d(y, x) read at its historical position y·n + x: the same
           IEEE value the row-per-source table held, so the argmin —
           ties resolved by first strict improvement in y order — is
           unchanged. *)
        let idx = ref x in
        for y = 0 to n - 1 do
          if Float.is_finite (Geometry.Fbuf.get value y) then begin
            let c =
              Geometry.Fbuf.get value y
              +. (d_factor *. Geometry.Fbuf.get flat !idx)
            in
            if c < !best then begin
              best := c;
              best_y := y
            end
          end;
          idx := !idx + n
        done;
        Geometry.Fbuf.set next x (!best +. !service);
        parents_t.(x) <- !best_y
      done
    in
    ignore (Exec.map compute_block block_ids);
    Geometry.Fbuf.blit next 0 value 0 n
  done;
  let best_x = ref 0 in
  for x = 1 to n - 1 do
    if Geometry.Fbuf.get value x < Geometry.Fbuf.get value !best_x then
      best_x := x
  done;
  let positions = Array.make t_len 0 in
  let x = ref !best_x in
  for t = t_len - 1 downto 0 do
    positions.(t) <- !x;
    x := parents.(t).(!x)
  done;
  { cost = Geometry.Fbuf.get value !best_x; positions }

let optimum metric ~d_factor inst = (solve metric ~d_factor inst).cost

(* Cache key: everything the DP can observe — the graph (the metric is
   a pure function of it), D's IEEE bits, the start node and every
   round's request nodes. *)
let cache_key ~graph ~d_factor (inst : Pm_model.instance) =
  let rounds = inst.Pm_model.rounds in
  let buf = Buffer.create (256 + (Array.length rounds * 16)) in
  Buffer.add_string buf (Graph.serialize graph);
  Buffer.add_char buf '\n';
  Buffer.add_int64_le buf (Int64.bits_of_float d_factor);
  Buffer.add_int64_le buf (Int64.of_int inst.Pm_model.start);
  Buffer.add_int64_le buf (Int64.of_int (Array.length rounds));
  Array.iter
    (fun round ->
      Buffer.add_int64_le buf (Int64.of_int (Array.length round));
      Array.iter (fun v -> Buffer.add_int64_le buf (Int64.of_int v)) round)
    rounds;
  Buffer.contents buf

let optimum_cached ~graph metric ~d_factor inst =
  Offline.Opt_cache.find_or_compute_keyed ~solver:"pm-dp:v1"
    ~key:(cache_key ~graph ~d_factor inst)
    (fun () -> optimum metric ~d_factor inst)
