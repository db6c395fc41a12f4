[@@@no_boxed_floats]

module Heap = Geometry.Heap
module Vec = Geometry.Vec

(* Exact optimum of the serve-assignment relaxation (docs/fleet.md):
   every request is served by a server moving onto it, movement costs
   [D] per unit, budgets and the service term are dropped.  A solution
   partitions the flattened request sequence into at most [k]
   time-increasing chains, one per server that ever moves, and costs

     Σ_chains D·( d(start, r_first) + Σ_links d(r_prev, r_next) ).

   Rewriting each chain against the common start position turns this
   into an assignment problem with no big-M arcs:

     OPT = D·Σ_j d(start, r_j)  +  min Σ_links c(j, l)
     c(j, l) = D·(d(r_j, r_l) − d(start, r_l))      for j < l

   where a "link" (j, l) says the server that served request [j] goes
   on to serve request [l] next.  Each request has at most one
   successor and at most one predecessor, and using fewer than
   [n − k] links would need more than [k] chains — so the link set is
   a min-cost bipartite matching of size ≥ max(0, n − k), extended
   further only while another link has negative marginal cost.  That
   matching is what the flow below computes: successive shortest
   paths with Johnson potentials on flat CSR arrays (the exemplar's
   [execute_opt_network], minus the big-M start arcs).  One run
   answers every bound from [k] up ([run], [frontier]). *)

(* --- canonical pricing ----------------------------------------------- *)

(* Both the flow solver and the brute-force enumerator re-price their
   argmin partition through this one function, so equal partitions
   yield bit-identical totals: chains ordered by first request index,
   links accumulated chain by chain in time order, every distance a
   plain [Vec.dist]. *)
let price_chains ~d_factor ~start ~(requests : Vec.t array) chains =
  let n = Array.length requests in
  let seen = Array.make (if n = 0 then 1 else n) false in
  Array.iter
    (fun chain ->
      if Array.length chain = 0 then
        invalid_arg "Fleet_flow.price_chains: empty chain";
      Array.iteri
        (fun pos j ->
          if j < 0 || j >= n then
            invalid_arg "Fleet_flow.price_chains: index out of bounds";
          if seen.(j) then
            invalid_arg "Fleet_flow.price_chains: request served twice";
          seen.(j) <- true;
          if pos > 0 && chain.(pos - 1) >= j then
            invalid_arg "Fleet_flow.price_chains: chain not time-increasing")
        chain)
    chains;
  for j = 0 to n - 1 do
    if not seen.(j) then
      invalid_arg "Fleet_flow.price_chains: request left unserved"
  done;
  let sorted = Array.copy chains in
  Array.sort (fun a b -> compare a.(0) b.(0)) sorted;
  let acc = ref 0.0 in
  for c = 0 to Array.length sorted - 1 do
    let chain = sorted.(c) in
    acc := !acc +. (d_factor *. Vec.dist start requests.(chain.(0)));
    for pos = 1 to Array.length chain - 1 do
      acc :=
        !acc
        +. (d_factor *. Vec.dist requests.(chain.(pos - 1)) requests.(chain.(pos)))
    done
  done;
  !acc

(* --- the solver ------------------------------------------------------- *)

(* The partition a matching encodes: [succ.(j)] is request j's
   successor ([-1]: none).  Chains start at the requests nobody
   precedes and come out sorted by first index. *)
let chains_of_succ succ =
  let n = Array.length succ in
  let has_pred = Array.make n false in
  Array.iter (fun l -> if l >= 0 then has_pred.(l) <- true) succ;
  let chains = ref [] in
  for j = n - 1 downto 0 do
    if not has_pred.(j) then begin
      let chain = ref [] and cur = ref j in
      while !cur >= 0 do
        chain := !cur :: !chain;
        cur := succ.(!cur)
      done;
      chains := Array.of_list (List.rev !chain) :: !chains
    end
  done;
  Array.of_list !chains

(* NaN compares false everywhere, so a non-finite input would leave
   the sink unreachable before [n - k] links and break the "at most
   [k] chains" contract; reject it up front. *)
let validate ~caller ~d_factor ~(start : Vec.t) ~(requests : Vec.t array) ~k =
  if k < 1 then invalid_arg (caller ^ ": k < 1");
  if d_factor <= 0.0 then invalid_arg (caller ^ ": d_factor <= 0");
  if not (Float.is_finite d_factor) then
    invalid_arg (caller ^ ": d_factor is not finite");
  for c = 0 to Array.length start - 1 do
    if not (Float.is_finite start.(c)) then
      invalid_arg (caller ^ ": start position is not finite")
  done;
  for j = 0 to Array.length requests - 1 do
    let r = requests.(j) in
    for c = 0 to Array.length r - 1 do
      if not (Float.is_finite r.(c)) then
        invalid_arg
          (caller ^ ": request coordinate is not finite (NaN or infinite)")
    done
  done

(* One successive-shortest-path run answers every bound from [k] up.
   The augmentations do not depend on the bound; it only decides where
   a run stops.  After [f] links the run for bound [b] stops when the
   sink is unreachable, or when [f >= n - b] and the next path's true
   cost is [>= 0].  So the run for [k] passes through the final state
   of every larger bound, and the state after [f] links is the answer
   for every still-open bound whose stop test holds there.  [answer ~lo
   ~hi succ] is called once per answering state, for the bounds [lo ..
   hi - 1] ([hi = max_int] the first time: the unconstrained optimum
   also holds for every larger bound), with [succ] the matching's
   successor array, valid only during the call.  The last call has
   [lo = k]. *)
let run ~caller ~d_factor ~start ~(requests : Vec.t array) ~k answer =
  validate ~caller ~d_factor ~start ~requests ~k;
  let n = Array.length requests in
  if n = 0 then answer ~lo:k ~hi:max_int [||]
  else begin
    (* Nodes: 0 = source, 1..n = A_j (request j's out side), n+1..2n =
       B_l (request l's in side), 2n+1 = sink. *)
    let nodes = (2 * n) + 2 in
    let source = 0 and sink = (2 * n) + 1 in
    let a_node j = 1 + j and b_node l = 1 + n + l in
    let start_d = Array.init n (fun l -> Vec.dist start requests.(l)) in
    (* Finite coordinates can still be too far apart ([1e308] and
       [-1e308]): an infinite cost, like a NaN, would leave the sink
       unreachable before [n - k] links.  [abs c < infinity] is false
       for an infinite or NaN [c] and, unlike [Float.is_finite], boxes
       nothing. *)
    let overflow () =
      invalid_arg (caller ^ ": d_factor times a distance is not finite")
    in
    for l = 0 to n - 1 do
      if not (Float.abs (d_factor *. start_d.(l)) < infinity) then overflow ()
    done;
    (* CSR arc storage: forward and residual arcs interleaved by node;
       [arev] pairs them. *)
    let deg = Array.make nodes 0 in
    deg.(source) <- n;
    for j = 0 to n - 1 do
      deg.(a_node j) <- n - j (* rev to source + forwards to B_l, l > j *)
    done;
    for l = 0 to n - 1 do
      deg.(b_node l) <- l + 1 (* revs from A_j, j < l + forward to sink *)
    done;
    deg.(sink) <- n;
    let head = Array.make (nodes + 1) 0 in
    for u = 0 to nodes - 1 do
      head.(u + 1) <- head.(u) + deg.(u)
    done;
    let m = head.(nodes) in
    let ato = Array.make m 0 in
    let acost = Array.make m 0.0 in
    let acap = Array.make m 0 in
    let arev = Array.make m 0 in
    let cursor = Array.copy head in
    let add_arc u v cost =
      let i = cursor.(u) and j = cursor.(v) in
      cursor.(u) <- i + 1;
      cursor.(v) <- j + 1;
      ato.(i) <- v;
      acost.(i) <- cost;
      acap.(i) <- 1;
      arev.(i) <- j;
      ato.(j) <- u;
      acost.(j) <- -.cost;
      acap.(j) <- 0;
      arev.(j) <- i
    in
    for j = 0 to n - 1 do
      add_arc source (a_node j) 0.0
    done;
    for j = 0 to n - 1 do
      for l = j + 1 to n - 1 do
        let c =
          d_factor *. (Vec.dist requests.(j) requests.(l) -. start_d.(l))
        in
        if not (Float.abs c < infinity) then overflow ();
        add_arc (a_node j) (b_node l) c
      done
    done;
    (* [b_live.(l)] is B_l's one residual out-arc.  B_l's in-arcs come
       from the A side and its only out-arc is to the sink (capacity
       1), so by conservation it is matched to at most one A_j: while
       unmatched its live arc is the sink arc, once matched to A_j it
       is the reverse of A_j → B_l.  Dijkstra relaxes just that arc,
       the one its full scan would find with capacity. *)
    let b_live = Array.make n 0 in
    for l = 0 to n - 1 do
      b_live.(l) <- cursor.(b_node l);
      add_arc (b_node l) sink 0.0
    done;
    (* Johnson potentials, initialized by one topological relaxation
       pass — the forward graph is a DAG layered source → A → B →
       sink, so visiting nodes in that order settles exact shortest
       distances.  [B_0] has no in-arcs and stays at +inf: it is never
       reachable (its only residual in-arc would need flow through it
       first), so its potential is never read. *)
    let pi = Array.make nodes infinity in
    pi.(source) <- 0.0;
    let relax_from u =
      if pi.(u) < infinity then
        for a = head.(u) to head.(u + 1) - 1 do
          if acap.(a) > 0 then begin
            let v = ato.(a) in
            let d = pi.(u) +. acost.(a) in
            if d < pi.(v) then pi.(v) <- d
          end
        done
    in
    relax_from source;
    for j = 0 to n - 1 do
      relax_from (a_node j)
    done;
    for l = 0 to n - 1 do
      relax_from (b_node l)
    done;
    let dist = Array.make nodes infinity in
    let parent = Array.make nodes (-1) in
    let popped = Array.make nodes false in
    let heap = Heap.create (4 * nodes) in
    (* [succ.(j) = l] exactly while A_j → B_l carries flow: request j's
       successor in the current matching. *)
    let succ = Array.make n (-1) in
    let flow = ref 0 in
    (* Every bound [>= !answered] has had its answer. *)
    let answered = ref max_int in
    while !answered > k do
      (* Dijkstra on reduced costs, early exit once the sink pops:
         popped nodes carry final distances, the rest are treated as
         [dist sink] in the potential update.  A pop reads the heap's
         root in place, then drops it. *)
      Array.fill dist 0 nodes infinity;
      Array.fill parent 0 nodes (-1);
      Array.fill popped 0 nodes false;
      Heap.clear heap;
      dist.(source) <- 0.0;
      Heap.push heap dist source;
      let searching = ref true in
      while !searching && heap.Heap.size > 0 do
        let d = heap.Heap.dists.(0) and u = heap.Heap.nodes.(0) in
        Heap.remove_top heap;
        if not popped.(u) && d <= dist.(u) then begin
          popped.(u) <- true;
          if u = sink then searching := false
          else begin
            let lo = if u > n then b_live.(u - n - 1) else head.(u) in
            let hi = if u > n then lo else head.(u + 1) - 1 in
            for a = lo to hi do
              if acap.(a) > 0 then begin
                let v = ato.(a) in
                if not popped.(v) then begin
                  let nd = d +. acost.(a) +. pi.(u) -. pi.(v) in
                  if nd < dist.(v) then begin
                    dist.(v) <- nd;
                    parent.(v) <- a;
                    Heap.push heap dist v
                  end
                end
              end
            done
          end
        end
      done;
      (* The lowest bound this state answers: every open one if the
         sink is unreachable, those with [n - b <= flow] if the next
         path's true cost is [>= 0], none otherwise. *)
      let lo =
        if Float.equal dist.(sink) infinity then k
        else if dist.(sink) +. pi.(sink) >= 0.0 then
          if n - !flow > k then n - !flow else k
        else max_int
      in
      if lo < !answered then begin
        answer ~lo ~hi:!answered succ;
        answered := lo
      end;
      if !answered > k then begin
        let v = ref sink in
        while !v <> source do
          let a = parent.(!v) in
          acap.(a) <- acap.(a) - 1;
          acap.(arev.(a)) <- acap.(arev.(a)) + 1;
          (* A path enters B_l only by a forward arc from some A_j
             (the sink is never expanded), which it now matches: l
             becomes request j's successor. *)
          if !v > n && !v < sink then begin
            let l = !v - n - 1 in
            b_live.(l) <- arev.(a);
            succ.(ato.(arev.(a)) - 1) <- l
          end;
          v := ato.(arev.(a))
        done;
        incr flow;
        let dsink = dist.(sink) in
        for u = 0 to nodes - 1 do
          pi.(u) <- pi.(u) +. (if popped.(u) then dist.(u) else dsink)
        done
      end
    done
  end

let solve ~d_factor ~start ~requests ~k =
  let chains = ref [||] in
  run ~caller:"Fleet_flow.solve" ~d_factor ~start ~requests ~k
    (fun ~lo ~hi:_ succ -> if lo = k then chains := chains_of_succ succ);
  (price_chains ~d_factor ~start ~requests !chains, !chains)

let frontier ~d_factor ~start ~requests ~k =
  let costs = ref [||] in
  run ~caller:"Fleet_flow.frontier" ~d_factor ~start ~requests ~k
    (fun ~lo ~hi succ ->
      let cost = price_chains ~d_factor ~start ~requests (chains_of_succ succ) in
      (* The first answer is the unconstrained optimum: the last entry. *)
      if hi = max_int then costs := Array.make (lo - k + 1) cost
      else Array.fill !costs (lo - k) (hi - lo) cost);
  !costs
