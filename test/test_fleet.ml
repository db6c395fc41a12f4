(* Tests for the fleet round pricing and its golden capture, the
   flow/brute offline optima, the Work-Function Algorithm, predictions
   and combiners. *)

module Vec = Geometry.Vec
module Config = Mobile_server.Config
module Instance = Mobile_server.Instance
module Cost = Mobile_server.Cost
module Fleet = Multi.Fleet

let check_float = Alcotest.(check (float 1e-9))

let rng_of seed = Prng.Stream.named ~name:"fleet-test" ~seed

let bit_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_bits what a b =
  if not (bit_eq a b) then
    Alcotest.failf "%s: %h <> %h (bitwise)" what a b

let config ?(d = 2.0) ?(m = 1.0) ?(delta = 0.5) () =
  Config.make ~d_factor:d ~move_limit:m ~delta ()

let random_fleet rng ~k ~dim =
  Array.init k (fun _ ->
      Array.init dim (fun _ -> Prng.Dist.uniform rng ~lo:(-10.0) ~hi:10.0))

let random_requests rng ~n ~dim =
  Array.init n (fun _ ->
      Array.init dim (fun _ -> Prng.Dist.uniform rng ~lo:(-10.0) ~hi:10.0))

(* --- round pricing against a longhand reference ---------------------- *)

(* The service reduction written out longhand with [Float.min], so
   [Fleet.service_cost] and [Fleet.step] are checked against [Vec.dist]
   directly rather than against themselves. *)
let boxed_service fleet requests =
  Array.fold_left
    (fun acc req ->
      acc
      +. Array.fold_left (fun m s -> Float.min m (Vec.dist s req)) infinity fleet)
    0.0 requests

let qcheck_service_and_step =
  QCheck.Test.make ~count:100 ~name:"service/step ≡ boxed reference"
    QCheck.(triple (int_range 1 6) (int_range 0 8) bool)
    (fun (k, n, serve_first) ->
      let rng = rng_of (1000 + k + (17 * n)) in
      let fleet = random_fleet rng ~k ~dim:2 in
      let fleet' = random_fleet rng ~k ~dim:2 in
      let requests = random_requests rng ~n ~dim:2 in
      let variant =
        if serve_first then Mobile_server.Variant.Serve_first
        else Mobile_server.Variant.Move_first
      in
      let cfg = Config.make ~d_factor:2.0 ~variant () in
      let step = Fleet.step cfg ~from:fleet ~to_:fleet' requests in
      let moved =
        Array.fold_left ( +. ) 0.0 (Array.mapi (fun i s -> Vec.dist s fleet'.(i)) fleet)
      in
      bit_eq (boxed_service fleet requests) (Fleet.service_cost fleet requests)
      && bit_eq step.Cost.move (2.0 *. moved)
      && bit_eq step.Cost.service
           (boxed_service (if serve_first then fleet else fleet') requests))

(* --- golden capture --------------------------------------------------- *)

(* test/golden/fleet_v1.txt was captured while Fleet.step still priced
   rounds on packed kernels; lib/experiments/golden.mli has the rules.
   Never regenerate it to silence this test. *)
let fleet_golden_capture () =
  let path =
    if Sys.file_exists "golden/fleet_v1.txt" then "golden/fleet_v1.txt"
    else Experiments.Golden.fleet_path
  in
  Alcotest.(check string) "byte identical"
    (In_channel.with_open_bin path In_channel.input_all)
    (Experiments.Golden.fleet_string ())

(* test/golden/fleet_flow_v1.txt pins Fleet_flow.solve's cost and chain
   choice; lib/experiments/golden.mli has the rules.  Never regenerate it
   to silence this test. *)
let fleet_flow_golden_capture () =
  let path =
    if Sys.file_exists "golden/fleet_flow_v1.txt" then "golden/fleet_flow_v1.txt"
    else Experiments.Golden.fleet_flow_path
  in
  Alcotest.(check string) "byte identical"
    (In_channel.with_open_bin path In_channel.input_all)
    (Experiments.Golden.fleet_flow_string ())

(* --- flow vs brute --------------------------------------------------- *)

let tiny_instance seed ~rounds ~per_round =
  let rng = rng_of seed in
  let steps =
    Array.init rounds (fun _ -> random_requests rng ~n:per_round ~dim:2)
  in
  Instance.make ~start:(Vec.zero 2) steps

let flow_equals_brute () =
  List.iter
    (fun (seed, k, rounds, per_round) ->
      let inst = tiny_instance seed ~rounds ~per_round in
      let cfg = config () in
      let flow = Multi.Fleet_offline.optimum_flow ~k cfg inst in
      let brute = Multi.Fleet_offline.optimum_brute ~k cfg inst in
      check_bits (Printf.sprintf "flow=brute seed %d k %d" seed k) brute flow)
    [
      (41, 1, 3, 2);
      (42, 2, 3, 2);
      (43, 2, 6, 1);
      (44, 3, 3, 2);
      (45, 3, 7, 1);
      (46, 2, 2, 3);
    ]

let flow_monotone_in_k () =
  let inst = Workloads.Hotspots.generate ~dim:2 ~t:10 (rng_of 50) in
  let cfg = config () in
  let prev = ref infinity in
  List.iter
    (fun k ->
      let v = Multi.Fleet_offline.optimum_flow ~k cfg inst in
      if v > !prev +. 1e-9 then
        Alcotest.failf "flow optimum increased at k=%d (%g > %g)" k v !prev;
      prev := v)
    [ 1; 2; 3; 4; 8 ]

let flow_cached_identical () =
  let inst = Workloads.Hotspots.generate ~dim:2 ~t:12 (rng_of 51) in
  let cfg = config () in
  let cold =
    fst
      (Multi.Fleet_flow.solve ~d_factor:2.0 ~start:inst.Instance.start
         ~requests:(Array.concat (Array.to_list inst.Instance.steps))
         ~k:3)
  in
  let cached = Multi.Fleet_offline.optimum_flow ~k:3 cfg inst in
  let warm = Multi.Fleet_offline.optimum_flow ~k:3 cfg inst in
  check_bits "cold = cached" cold cached;
  check_bits "cached = warm" cached warm

let price_chains_validates () =
  let requests = random_requests (rng_of 52) ~n:3 ~dim:2 in
  let price = Multi.Fleet_flow.price_chains ~d_factor:2.0 ~start:(Vec.zero 2) ~requests in
  Alcotest.check_raises "unserved"
    (Invalid_argument "Fleet_flow.price_chains: request left unserved")
    (fun () -> ignore (price [| [| 0; 1 |] |]));
  Alcotest.check_raises "twice"
    (Invalid_argument "Fleet_flow.price_chains: request served twice")
    (fun () -> ignore (price [| [| 0; 1 |]; [| 1; 2 |] |]));
  Alcotest.check_raises "order"
    (Invalid_argument "Fleet_flow.price_chains: chain not time-increasing")
    (fun () -> ignore (price [| [| 1; 0 |]; [| 2 |] |]))

(* --- Fleet_flow against the one-bound-per-run solver ------------------ *)

(* A verbatim copy of Fleet_flow's [price_chains] and [solve] as they
   stood when every run answered a single bound [k] and chains were read
   back by a final scan of the A side's saturated arcs.  Never edit it
   to make the property below agree: it is the reference that pins every
   cost bit and chain of the shipping solver. *)
module Ref_flow = struct
  module Heap = Geometry.Heap

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

  let solve ~d_factor ~start ~(requests : Vec.t array) ~k =
    if k < 1 then invalid_arg "Fleet_flow.solve: k < 1";
    if d_factor <= 0.0 then invalid_arg "Fleet_flow.solve: d_factor <= 0";
    let n = Array.length requests in
    if n = 0 then (0.0, [||])
    else begin
      (* Nodes: 0 = source, 1..n = A_j (request j's out side), n+1..2n =
         B_l (request l's in side), 2n+1 = sink. *)
      let nodes = (2 * n) + 2 in
      let source = 0 and sink = (2 * n) + 1 in
      let a_node j = 1 + j and b_node l = 1 + n + l in
      let start_d = Array.init n (fun l -> Vec.dist start requests.(l)) in
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
          add_arc (a_node j)
            (b_node l)
            (d_factor *. (Vec.dist requests.(j) requests.(l) -. start_d.(l)))
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
      let required = if n - k > 0 then n - k else 0 in
      let flow = ref 0 in
      let running = ref true in
      while !running do
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
        if Float.equal dist.(sink) infinity then running := false
        else begin
          let true_cost = dist.(sink) +. pi.(sink) in
          if !flow >= required && true_cost >= 0.0 then running := false
          else begin
            let v = ref sink in
            while !v <> source do
              let a = parent.(!v) in
              acap.(a) <- acap.(a) - 1;
              acap.(arev.(a)) <- acap.(arev.(a)) + 1;
              (* A path enters B_l only by a forward arc from some A_j
                 (the sink is never expanded), which it now matches. *)
              if !v > n && !v < sink then b_live.(!v - n - 1) <- arev.(a);
              v := ato.(arev.(a))
            done;
            incr flow;
            let dsink = dist.(sink) in
            for u = 0 to nodes - 1 do
              pi.(u) <- pi.(u) +. (if popped.(u) then dist.(u) else dsink)
            done
          end
        end
      done;
      (* Chain extraction from the net flow: A_j's saturated forward arc
         names request j's successor. *)
      let succ = Array.make n (-1) in
      let has_pred = Array.make n false in
      for j = 0 to n - 1 do
        for a = head.(a_node j) to head.(a_node j + 1) - 1 do
          let v = ato.(a) in
          if v > n && v <= 2 * n && acap.(a) = 0 then begin
            let l = v - n - 1 in
            succ.(j) <- l;
            has_pred.(l) <- true
          end
        done
      done;
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
      let chains = Array.of_list !chains in
      (price_chains ~d_factor ~start ~requests chains, chains)
    end
end

(* Inputs for the reference property: a start and [n] requests in
   [dim] dimensions.  On the lattice every coordinate is a multiple of
   1/4 in [-1, 1], so requests repeat, link costs tie and augmenting
   paths of true cost exactly 0 occur (1-D lattice distances are
   exact). *)
let flow_case ~seed ~dim ~lattice ~n =
  let rng = rng_of (7000 + seed) in
  let coord () =
    if lattice then float_of_int (Prng.Xoshiro.next_below rng 9 - 4) /. 4.0
    else Prng.Dist.uniform rng ~lo:(-10.0) ~hi:10.0
  in
  let point () = Array.init dim (fun _ -> coord ()) in
  let start = point () in
  (start, Array.init n (fun _ -> point ()))

let qcheck_flow_matches_reference =
  QCheck.Test.make ~count:400
    ~name:"Fleet_flow ≡ one-bound reference"
    QCheck.(
      pair
        (triple (int_bound 1_000_000) (int_range 0 40) (int_bound 1_000))
        (triple (int_range 1 3) bool (int_bound 2)))
    (fun ((seed, n, k_draw), (dim, lattice, d_index)) ->
      let start, requests = flow_case ~seed ~dim ~lattice ~n in
      let d_factor = [| 1.0; 2.0; 3.5 |].(d_index) in
      let k = 1 + (k_draw mod (n + 2)) in
      let frontier = Multi.Fleet_flow.frontier ~d_factor ~start ~requests ~k in
      let last = Array.length frontier - 1 in
      (* Every entry, then three bounds past the last, which the last
         entry also answers. *)
      List.for_all
        (fun i ->
          let bound = k + i in
          let cost, chains =
            Multi.Fleet_flow.solve ~d_factor ~start ~requests ~k:bound
          in
          let want, want_chains = Ref_flow.solve ~d_factor ~start ~requests ~k:bound in
          bit_eq cost want && chains = want_chains
          && bit_eq frontier.(min i last) want)
        (List.init (last + 4) Fun.id))

(* NaN compares false, so before these checks a non-finite input made
   the sink unreachable early and the solver returned more than [k]
   chains (4 at k = 2 here), priced nan or infinity. *)
let flow_rejects_non_finite () =
  let requests = random_requests (rng_of 53) ~n:4 ~dim:2 in
  let solve ?(d_factor = 2.0) ?(start = Vec.zero 2) requests () =
    ignore (Multi.Fleet_flow.solve ~d_factor ~start ~requests ~k:2)
  in
  let poisoned x =
    Array.mapi (fun j r -> if j = 2 then [| r.(0); x |] else r) requests
  in
  let d_msg = Invalid_argument "Fleet_flow.solve: d_factor is not finite" in
  let start_msg =
    Invalid_argument "Fleet_flow.solve: start position is not finite"
  in
  let coord_msg =
    Invalid_argument
      "Fleet_flow.solve: request coordinate is not finite (NaN or infinite)"
  in
  Alcotest.check_raises "D nan" d_msg (solve ~d_factor:nan requests);
  Alcotest.check_raises "D inf" d_msg (solve ~d_factor:infinity requests);
  Alcotest.check_raises "start nan" start_msg
    (solve ~start:[| 0.0; nan |] requests);
  Alcotest.check_raises "start -inf" start_msg
    (solve ~start:[| neg_infinity; 0.0 |] requests);
  Alcotest.check_raises "request nan" coord_msg (solve (poisoned nan));
  Alcotest.check_raises "request inf" coord_msg (solve (poisoned infinity));
  Alcotest.check_raises "frontier"
    (Invalid_argument
       "Fleet_flow.frontier: request coordinate is not finite (NaN or \
        infinite)")
    (fun () ->
      ignore
        (Multi.Fleet_flow.frontier ~d_factor:2.0 ~start:(Vec.zero 2)
           ~requests:(poisoned nan) ~k:2));
  (* Finite coordinates whose distances overflow: 1e308 and -1e308 are
     2e308 apart.  Unchecked, k = 1 returned 2 chains priced infinity,
     and 3 chains at k = 1 and 2 with a third request at 0.  At D = 2
     the start distances overflow first; at D = 1 only the link does. *)
  let far = [| [| 1e308 |]; [| -1e308 |] |] in
  let far3 = Array.append far [| [| 0.0 |] |] in
  let overflow caller =
    Invalid_argument (caller ^ ": d_factor times a distance is not finite")
  in
  let solve_1d ?(d_factor = 2.0) requests k () =
    ignore (Multi.Fleet_flow.solve ~d_factor ~start:(Vec.zero 1) ~requests ~k)
  in
  Alcotest.check_raises "far apart" (overflow "Fleet_flow.solve")
    (solve_1d far 1);
  Alcotest.check_raises "far apart, 3 requests, k = 2"
    (overflow "Fleet_flow.solve") (solve_1d far3 2);
  Alcotest.check_raises "far apart, D = 1: the link cost"
    (overflow "Fleet_flow.solve")
    (solve_1d ~d_factor:1.0 far 1);
  Alcotest.check_raises "D times the start distance"
    (overflow "Fleet_flow.solve")
    (solve_1d [| [| 1e308 |] |] 1);
  Alcotest.check_raises "frontier, far apart" (overflow "Fleet_flow.frontier")
    (fun () ->
      ignore
        (Multi.Fleet_flow.frontier ~d_factor:2.0 ~start:(Vec.zero 1)
           ~requests:far3 ~k:1))

(* --- the flow cache's extra entries ---------------------------------- *)

let with_temp_dir f =
  let dir = Filename.temp_file "msp-test-fleet" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat dir e)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* A miss at k = 2 runs one flow for every bound and keeps the larger
   bounds' optima in memory: on an f1-shaped instance k = 3 and 4 then
   hit, and only the solved bound reaches the disk store. *)
let flow_cache_extra_entries () =
  let module C = Offline.Opt_cache in
  let inst = Workloads.Hotspots.generate ~hotspots:3 ~dim:2 ~t:40 (rng_of 54) in
  let cfg = config () in
  let requests = Array.concat (Array.to_list inst.Instance.steps) in
  let want k =
    fst (Ref_flow.solve ~d_factor:2.0 ~start:inst.Instance.start ~requests ~k)
  in
  let check_run label ks =
    List.iter
      (fun k ->
        check_bits
          (Printf.sprintf "%s k=%d" label k)
          (want k)
          (Multi.Fleet_offline.optimum_flow ~k cfg inst))
      ks
  in
  let check_stats label ~hits ~misses =
    let s = C.stats () in
    Alcotest.(check (pair int int))
      (label ^ ": hits, misses") (hits, misses) (s.C.hits, s.C.misses)
  in
  let fresh dir =
    C.clear ();
    C.reset_stats ();
    C.set_disk_dir (Some dir)
  in
  Fun.protect
    ~finally:(fun () ->
      C.set_enabled true;
      C.set_disk_dir None;
      C.clear ())
    (fun () ->
      C.set_enabled true;
      with_temp_dir (fun dir ->
          fresh dir;
          check_run "k = 2, 3, 4" [ 2; 3; 4 ];
          check_stats "k = 2, 3, 4" ~hits:2 ~misses:1;
          Alcotest.(check int) "disk entries" 1
            (List.length
               (List.filter
                  (fun e -> Filename.check_suffix e ".opt")
                  (Array.to_list (Sys.readdir dir)))));
      with_temp_dir (fun dir ->
          fresh dir;
          check_run "k = 4, 2" [ 4; 2 ];
          check_stats "k = 4, 2" ~hits:0 ~misses:2);
      C.set_disk_dir None;
      C.set_enabled false;
      check_run "cache off" [ 2; 3; 4 ])

(* --- the Work-Function Algorithm ------------------------------------- *)

let wfa_untruncated_matches_brute () =
  List.iter
    (fun (seed, k, rounds, per_round) ->
      let inst = tiny_instance seed ~rounds ~per_round in
      let cfg = config () in
      let wfa = Multi.Fleet_wfa.run ~beam:1024 ~k cfg inst in
      let brute = Multi.Fleet_offline.optimum_brute ~k cfg inst in
      check_float
        (Printf.sprintf "wfa opt seed %d" seed)
        brute wfa.Multi.Fleet_wfa.opt_estimate;
      if wfa.Multi.Fleet_wfa.serve_cost < wfa.Multi.Fleet_wfa.opt_estimate -. 1e-9
      then Alcotest.failf "WFA served below the optimum")
    [ (61, 2, 3, 2); (62, 3, 5, 1); (63, 2, 5, 1) ]

let wfa_beam_is_upper_bound () =
  let inst = tiny_instance 64 ~rounds:6 ~per_round:2 in
  let cfg = config () in
  let exact = Multi.Fleet_wfa.run ~beam:4096 ~k:3 cfg inst in
  let truncated = Multi.Fleet_wfa.run ~beam:4 ~k:3 cfg inst in
  if
    truncated.Multi.Fleet_wfa.opt_estimate
    < exact.Multi.Fleet_wfa.opt_estimate -. 1e-9
  then Alcotest.failf "beam truncation lowered the work function"

let wfa_deterministic () =
  let inst = Workloads.Hotspots.generate ~dim:2 ~t:20 (rng_of 65) in
  let cfg = config () in
  let a = Multi.Fleet_wfa.run ~k:3 cfg inst in
  let b = Multi.Fleet_wfa.run ~k:3 cfg inst in
  check_bits "serve" a.Multi.Fleet_wfa.serve_cost b.Multi.Fleet_wfa.serve_cost;
  check_bits "opt" a.Multi.Fleet_wfa.opt_estimate b.Multi.Fleet_wfa.opt_estimate;
  (* And through the engine: same bits again. *)
  let r1 =
    Multi.Fleet_engine.total_cost ~k:3 cfg (Multi.Fleet_wfa.algorithm ()) inst
  in
  let r2 =
    Multi.Fleet_engine.total_cost ~k:3 cfg (Multi.Fleet_wfa.algorithm ()) inst
  in
  check_bits "engine" r1 r2

let wfa_engine_budget () =
  let cfg = config () in
  let inst = Workloads.Hotspots.generate ~dim:2 ~t:30 (rng_of 66) in
  let run = Multi.Fleet_engine.run ~k:3 cfg (Multi.Fleet_wfa.algorithm ()) inst in
  let start = Fleet.spread_start ~k:3 inst.Instance.start in
  if
    not
      (Fleet.feasible ~limit:(Config.online_limit cfg) ~start
         run.Multi.Fleet_engine.fleets)
  then Alcotest.fail "WFA trajectory exceeds the online budget"

(* Minor words per request of the engine-facing WFA stepper on the f1
   shape at k = 3, counted after [make] (which sizes every buffer from
   the beam): the per-round proposal arrays and nothing per child. *)
let wfa_words_per_request ~beam =
  let inst = Workloads.Hotspots.generate ~hotspots:3 ~dim:2 ~t:40 (rng_of 67) in
  let k = 3 in
  let step =
    (Multi.Fleet_wfa.algorithm ~beam ()).Multi.Fleet_algorithm.make (config ())
      ~start:(Fleet.spread_start ~k inst.Instance.start)
  in
  let requests =
    Array.fold_left (fun n r -> n + Array.length r) 0 inst.Instance.steps
  in
  let w0 = Gc.minor_words () in
  Array.iter (fun round -> ignore (step round)) inst.Instance.steps;
  (Gc.minor_words () -. w0) /. float_of_int requests

let wfa_alloc_independent_of_beam () =
  let w8 = wfa_words_per_request ~beam:8 in
  let w128 = wfa_words_per_request ~beam:128 in
  if w128 > w8 +. 1.0 then
    Alcotest.failf "WFA minor words per request grow with the beam: %.1f at \
                    beam 8, %.1f at beam 128" w8 w128

(* --- WFA against the pre-flat-tuple implementation ------------------ *)

(* A verbatim copy of Fleet_wfa as it stood before configs became flat
   int tuples: per child an [Array.copy], an [Array.sort compare] and a
   structural [Hashtbl] lookup, then the beam ordered by [cmp_child].
   Never edit it to make the property below agree: it is the reference
   that pins every bit of the shipping WFA. *)
module Ref_wfa = struct
  module Fbuf = Geometry.Fbuf

  (* The Work-Function Algorithm over the serve-assignment relaxation
     (docs/fleet.md).  A config is a multiset of [k] positions drawn from
     the {e pool} — the start plus every request seen so far, stored in a
     growable Fbuf — encoded as a sorted tuple of pool indices.  The work
     function w_t over configs updates {e incrementally} per request on
     reused Fbuf rows: each beamed config spawns [k] one-server children,
     children are deduped keeping the smaller value (the lazy DP step —
     in the relaxation only the serving server needs to move, so the
     one-replacement update is exact), sorted by (value, config) and
     truncated to the beam.  The algorithm's own labeled config is
     force-kept in the beam, so its decision values always exist.  With a
     beam at least the reachable config count the DP is untruncated and
     [opt_estimate] equals the relaxation optimum (pinned against the
     brute enumerator in test_fleet); any smaller beam keeps
     [opt_estimate >= OPT_relax]. *)

  type t = {
    k : int;
    dim : int;
    d_factor : float;
    beam_cap : int;
    mutable pool : Fbuf.t;
    mutable pool_len : int;
    (* Beam: [configs.(c)] (sorted pool-index tuples) with values in the
       reused row [w.(c)], [beam_len] entries. *)
    configs : int array array;
    w : Fbuf.t;
    mutable beam_len : int;
    (* Child scratch: up to [k·beam_cap] candidates per request, values
       in the reused row [child_w]. *)
    child_configs : int array array;
    child_w : Fbuf.t;
    tbl : (int array, int) Hashtbl.t;
    (* The algorithm's own labeled config and its accumulated
       (relaxation-level) service cost. *)
    cur : int array;
    mutable cur_w : float;
    mutable serve_cost : float;
  }

  let create ~beam ~k ~d_factor (start : Vec.t) =
    if k < 1 then invalid_arg "Fleet_wfa: k < 1";
    if beam < 1 then invalid_arg "Fleet_wfa: beam < 1";
    let dim = Vec.dim start in
    let pool = Fbuf.create (dim * 16) in
    Fbuf.blit_from_array start 0 pool 0 dim;
    let t =
      {
        k;
        dim;
        d_factor;
        beam_cap = beam;
        pool;
        pool_len = 1;
        configs = Array.make beam [||];
        w = Fbuf.create beam;
        beam_len = 1;
        child_configs = Array.make (k * beam) [||];
        child_w = Fbuf.create (k * beam);
        tbl = Hashtbl.create (4 * k * beam);
        cur = Array.make k 0;
        cur_w = 0.0;
        serve_cost = 0.0;
      }
    in
    t.configs.(0) <- Array.make k 0;
    Fbuf.set t.w 0 0.0;
    t

  (* [Vec.dist] between pool entries, operation for operation. *)
  let pool_dist t a b =
    let d = t.dim in
    let ba = a * d and bb = b * d in
    let pool = t.pool in
    let m = ref 0.0 in
    for c = 0 to d - 1 do
      m := Float.max !m (Float.abs (Fbuf.get pool (ba + c) -. Fbuf.get pool (bb + c)))
    done;
    let m = !m in
    if Float.equal m 0.0 then 0.0
    else if Float.equal m infinity then infinity
    else begin
      let acc = ref 0.0 in
      for c = 0 to d - 1 do
        let x = (Fbuf.get pool (ba + c) -. Fbuf.get pool (bb + c)) /. m in
        acc := !acc +. (x *. x)
      done;
      m *. sqrt !acc
    end

  let pool_get t i = Array.init t.dim (fun c -> Fbuf.get t.pool ((i * t.dim) + c))

  let append_pool t (r : Vec.t) =
    if Array.length r <> t.dim then
      invalid_arg "Fleet_wfa: request dimension mismatch";
    if (t.pool_len + 1) * t.dim > Fbuf.length t.pool then begin
      let fresh = Fbuf.create (2 * Fbuf.length t.pool) in
      Fbuf.blit t.pool 0 fresh 0 (t.pool_len * t.dim);
      t.pool <- fresh
    end;
    Fbuf.blit_from_array r 0 t.pool (t.pool_len * t.dim) t.dim;
    t.pool_len <- t.pool_len + 1;
    t.pool_len - 1

  let cmp_child t a b =
    let wa = Fbuf.get t.child_w a and wb = Fbuf.get t.child_w b in
    let c = Float.compare wa wb in
    if c <> 0 then c else compare t.child_configs.(a) t.child_configs.(b)

  (* Feed one request; returns the serving server's index in the
     algorithm's labeled config (strict argmin, lowest index). *)
  let observe t (r : Vec.t) =
    let p = append_pool t r in
    let k = t.k in
    (* Spawn and dedup children of every beamed config. *)
    Hashtbl.reset t.tbl;
    let nchild = ref 0 in
    for c = 0 to t.beam_len - 1 do
      let base = Fbuf.get t.w c in
      let cfg = t.configs.(c) in
      for i = 0 to k - 1 do
        let w' = base +. (t.d_factor *. pool_dist t cfg.(i) p) in
        let key = Array.copy cfg in
        key.(i) <- p;
        Array.sort compare key;
        match Hashtbl.find_opt t.tbl key with
        | Some slot ->
          if w' < Fbuf.get t.child_w slot then Fbuf.set t.child_w slot w'
        | None ->
          let slot = !nchild in
          incr nchild;
          t.child_configs.(slot) <- key;
          Fbuf.set t.child_w slot w';
          Hashtbl.replace t.tbl key slot
      done
    done;
    (* The algorithm's decision: serve with the server minimizing
       w_t(cur[i := r]) + D·d(cur_i, r); those children all exist in the
       table because cur is force-kept in the beam. *)
    let best_i = ref 0 and best_v = ref infinity and best_w = ref infinity in
    let probe = Array.make k 0 in
    for i = 0 to k - 1 do
      Array.blit t.cur 0 probe 0 k;
      probe.(i) <- p;
      Array.sort compare probe;
      let slot = Hashtbl.find t.tbl probe in
      let w' = Fbuf.get t.child_w slot in
      let v = w' +. (t.d_factor *. pool_dist t t.cur.(i) p) in
      if v < !best_v then begin
        best_i := i;
        best_v := v;
        best_w := w'
      end
    done;
    t.serve_cost <- t.serve_cost +. (t.d_factor *. pool_dist t t.cur.(!best_i) p);
    t.cur.(!best_i) <- p;
    t.cur_w <- !best_w;
    (* New beam: children sorted by (value, tuple), truncated, with the
       algorithm's (canonicalized) config force-kept. *)
    let order = Array.init !nchild (fun i -> i) in
    Array.sort (cmp_child t) order;
    let keep = if !nchild < t.beam_cap then !nchild else t.beam_cap in
    let cur_key = Array.copy t.cur in
    Array.sort compare cur_key;
    let cur_kept = ref false in
    for c = 0 to keep - 1 do
      let slot = order.(c) in
      t.configs.(c) <- t.child_configs.(slot);
      Fbuf.set t.w c (Fbuf.get t.child_w slot);
      if t.child_configs.(slot) = cur_key then cur_kept := true
    done;
    t.beam_len <-
      (if !cur_kept then keep
       else begin
         let c = if keep = t.beam_cap then keep - 1 else keep in
         t.configs.(c) <- cur_key;
         Fbuf.set t.w c t.cur_w;
         if keep < t.beam_cap then keep + 1 else keep
       end);
    !best_i

  let opt_estimate t =
    let best = ref (Fbuf.get t.w 0) in
    for c = 1 to t.beam_len - 1 do
      let w = Fbuf.get t.w c in
      if w < !best then best := w
    done;
    !best

  let serve_cost t = t.serve_cost

  let default_beam = 64

  type outcome = { serve_cost : float; opt_estimate : float }

  let run ?(beam = default_beam) ~k (config : Config.t) (inst : Instance.t) =
    let t = create ~beam ~k ~d_factor:config.Config.d_factor inst.Instance.start in
    Array.iter (fun round -> Array.iter (fun r -> ignore (observe t r)) round)
      inst.Instance.steps;
    { serve_cost = serve_cost t; opt_estimate = opt_estimate t }

  (* The engine-facing wrapper: per round, feed each request to the DP in
     arrival order, then propose the labeled config's positions; the
     internal fleet (and the engine again, idempotently) clamps the
     proposal onto the online budget, exactly like [kmeans_tracker]. *)
  let algorithm ?(beam = default_beam) () =
    {
      Multi.Fleet_algorithm.name = "fleet-wfa";
      make =
        (fun ?rng:_ (config : Config.t) ~start ->
          let k = Array.length start in
          if k = 0 then invalid_arg "fleet-wfa: empty fleet";
          let t = create ~beam ~k ~d_factor:config.Config.d_factor start.(0) in
          let fleet = ref (Array.map Vec.copy start) in
          let limit = Config.online_limit config in
          fun requests ->
            Array.iter (fun r -> ignore (observe t r)) requests;
            let proposed = Array.init k (fun i -> pool_get t t.cur.(i)) in
            let clamped =
              Array.mapi
                (fun i p -> Vec.clamp_step ~from:(!fleet).(i) limit p)
                proposed
            in
            fleet := clamped;
            clamped);
    }
end

(* Inputs for the reference property: [rounds] rounds of 0..4 requests
   (0 = an empty round).  On the lattice every coordinate is a multiple
   of 1/4 in [-1, 1], so requests repeat and child values tie exactly.
   The tuple tie-break of the beam order decides only which tied child
   survives truncation, so half the cases draw a beam of at most 12,
   which truncates on most of these inputs. *)
let wfa_case_instance ~seed ~dim ~lattice =
  let rng = rng_of (5000 + seed) in
  let coord () =
    if lattice then float_of_int (Prng.Xoshiro.next_below rng 9 - 4) /. 4.0
    else Prng.Dist.uniform rng ~lo:(-10.0) ~hi:10.0
  in
  let rounds = 1 + Prng.Xoshiro.next_below rng 12 in
  Instance.make ~start:(Vec.zero dim)
    (Array.init rounds (fun _ ->
         Array.init (Prng.Xoshiro.next_below rng 5) (fun _ ->
             Array.init dim (fun _ -> coord ()))))

let qcheck_wfa_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"Fleet_wfa ≡ pre-flat-tuple reference (bitwise)"
    QCheck.(
      pair
        (triple (int_bound 1_000_000) (int_range 1 5)
           (oneof [ int_range 1 128; int_range 1 12 ]))
        (quad (int_range 1 3) bool bool (int_bound 2)))
    (fun ((seed, k, beam), (dim, lattice, serve_first, d_index)) ->
      let inst = wfa_case_instance ~seed ~dim ~lattice in
      let variant =
        if serve_first then Mobile_server.Variant.Serve_first
        else Mobile_server.Variant.Move_first
      in
      let cfg =
        Config.make ~d_factor:[| 1.0; 2.0; 7.5 |].(d_index) ~move_limit:1.0
          ~delta:0.5 ~variant ()
      in
      let got = Multi.Fleet_wfa.run ~beam ~k cfg inst in
      let want = Ref_wfa.run ~beam ~k cfg inst in
      let engine alg = Multi.Fleet_engine.run ~k cfg alg inst in
      let a = engine (Multi.Fleet_wfa.algorithm ~beam ()) in
      let b = engine (Ref_wfa.algorithm ~beam ()) in
      let same_fleets =
        Array.for_all2
          (Array.for_all2 (Array.for_all2 bit_eq))
          a.Multi.Fleet_engine.fleets b.Multi.Fleet_engine.fleets
      in
      bit_eq got.Multi.Fleet_wfa.serve_cost want.Ref_wfa.serve_cost
      && bit_eq got.Multi.Fleet_wfa.opt_estimate want.Ref_wfa.opt_estimate
      && bit_eq a.Multi.Fleet_engine.cost.Cost.move b.Multi.Fleet_engine.cost.Cost.move
      && bit_eq a.Multi.Fleet_engine.cost.Cost.service
           b.Multi.Fleet_engine.cost.Cost.service
      && same_fleets)

(* --- predictions ----------------------------------------------------- *)

let prediction_deterministic () =
  let inst = Workloads.Hotspots.generate ~dim:2 ~t:25 (rng_of 70) in
  let a = Multi.Fleet_prediction.generate ~k:3 ~sigma:0.7 ~seed:9 inst in
  let b = Multi.Fleet_prediction.generate ~k:3 ~sigma:0.7 ~seed:9 inst in
  Array.iteri
    (fun t fleet ->
      Array.iteri
        (fun i v ->
          Array.iteri (fun c x -> check_bits "prediction" x b.(t).(i).(c)) v)
        fleet)
    a;
  let c = Multi.Fleet_prediction.generate ~k:3 ~sigma:0.7 ~seed:10 inst in
  if a = c then Alcotest.fail "different seeds produced identical noise"

let prediction_noiseless_serves () =
  let inst = tiny_instance 71 ~rounds:5 ~per_round:2 in
  let preds = Multi.Fleet_prediction.generate ~k:2 ~seed:0 inst in
  (* The noiseless oracle is the greedy relaxation: after each round
     the last request of the round sits under some server exactly. *)
  Array.iteri
    (fun t fleet ->
      let reqs = inst.Instance.steps.(t) in
      let last = reqs.(Array.length reqs - 1) in
      let covered =
        Array.exists (fun s -> Vec.dist s last = 0.0) fleet
      in
      if not covered then Alcotest.failf "round %d: last request uncovered" t)
    preds

let ftp_runs_feasibly () =
  let cfg = config () in
  let inst = Workloads.Hotspots.generate ~dim:2 ~t:30 (rng_of 72) in
  let alg = Multi.Fleet_prediction.algorithm ~k:3 ~sigma:0.3 ~seed:4 inst in
  let run = Multi.Fleet_engine.run ~k:3 cfg alg inst in
  let start = Fleet.spread_start ~k:3 inst.Instance.start in
  if
    not
      (Fleet.feasible ~limit:(Config.online_limit cfg) ~start
         run.Multi.Fleet_engine.fleets)
  then Alcotest.fail "FtP trajectory exceeds the online budget";
  if not (Float.is_finite (Cost.total run.Multi.Fleet_engine.cost)) then
    Alcotest.fail "FtP cost not finite"

(* --- combiners ------------------------------------------------------- *)

let combiner_candidates () =
  [ Multi.Fleet_mtc.independent; Multi.Fleet_algorithm.stay_put ]

let combiner_det_tracks_best () =
  let cfg = config () in
  let inst = Workloads.Hotspots.generate ~dim:2 ~t:50 (rng_of 80) in
  let comb = Multi.Fleet_combine.deterministic (combiner_candidates ()) in
  let c_comb = Multi.Fleet_engine.total_cost ~k:3 cfg comb inst in
  let c_mtc = Multi.Fleet_engine.total_cost ~k:3 cfg Multi.Fleet_mtc.independent inst in
  let c_stay =
    Multi.Fleet_engine.total_cost ~k:3 cfg Multi.Fleet_algorithm.stay_put inst
  in
  let best = Float.min c_mtc c_stay in
  (* The doubling combiner is loosely competitive with the best
     candidate; a generous factor guards the wiring, not the theory. *)
  if c_comb > (10.0 *. best) +. 1e-6 then
    Alcotest.failf "combiner cost %g far above best candidate %g" c_comb best

let combiner_rand_deterministic_with_stream () =
  let cfg = config () in
  let inst = Workloads.Hotspots.generate ~dim:2 ~t:40 (rng_of 81) in
  let run_once () =
    let comb = Multi.Fleet_combine.randomized (combiner_candidates ()) in
    Multi.Fleet_engine.total_cost ~rng:(rng_of 82) ~k:3 cfg comb inst
  in
  check_bits "randomized combiner" (run_once ()) (run_once ())

let combiner_validates () =
  Alcotest.check_raises "empty" (Invalid_argument "fleet-combine-det: no candidates")
    (fun () -> ignore (Multi.Fleet_combine.deterministic []));
  Alcotest.check_raises "factor" (Invalid_argument "fleet-combine-det: factor < 1")
    (fun () ->
      ignore (Multi.Fleet_combine.deterministic ~factor:0.5 (combiner_candidates ())))

(* --- offline comparators: tie-breaking and bounds --------------------- *)

let pick_tie_break () =
  let cost, label = Multi.Fleet_offline.pick ~km:5.0 ~solo:5.0 in
  check_float "tie cost" 5.0 cost;
  Alcotest.(check string) "tie label" "static-kmeans" label;
  let _, label = Multi.Fleet_offline.pick ~km:6.0 ~solo:5.0 in
  Alcotest.(check string) "solo label" "single-server-opt" label;
  let _, label = Multi.Fleet_offline.pick ~km:4.0 ~solo:5.0 in
  Alcotest.(check string) "km label" "static-kmeans" label

let optimum_is_best_upper () =
  let inst = Workloads.Hotspots.generate ~dim:2 ~t:30 (rng_of 90) in
  let cfg = config () in
  let a = Multi.Fleet_offline.optimum ~k:3 cfg inst (rng_of 91) in
  let b, _ = Multi.Fleet_offline.best_upper ~k:3 cfg inst (rng_of 91) in
  check_bits "optimum = best_upper" b a

let single_server_matches_line_dp () =
  let inst = Workloads.Hotspots.generate ~dim:1 ~t:20 (rng_of 92) in
  let cfg = config () in
  check_bits "1-D fallback"
    (Offline.Line_dp.optimum cfg inst)
    (Multi.Fleet_offline.single_server cfg inst)

let () =
  Alcotest.run "fleet"
    [
      ( "golden",
        [ Alcotest.test_case "fleet capture" `Quick fleet_golden_capture;
          Alcotest.test_case "flow capture" `Quick fleet_flow_golden_capture ] );
      ( "flow",
        [
          Alcotest.test_case "flow ≡ brute (bitwise)" `Quick flow_equals_brute;
          Alcotest.test_case "monotone in k" `Quick flow_monotone_in_k;
          Alcotest.test_case "cached ≡ cold" `Quick flow_cached_identical;
          Alcotest.test_case "price_chains validates" `Quick price_chains_validates;
          Alcotest.test_case "rejects non-finite input" `Quick
            flow_rejects_non_finite;
          Alcotest.test_case "one miss prices k = 2, 3, 4" `Quick
            flow_cache_extra_entries;
        ] );
      ( "wfa",
        [
          Alcotest.test_case "untruncated ≡ brute" `Quick
            wfa_untruncated_matches_brute;
          Alcotest.test_case "beam keeps upper bound" `Quick wfa_beam_is_upper_bound;
          Alcotest.test_case "deterministic" `Quick wfa_deterministic;
          Alcotest.test_case "budget respected" `Quick wfa_engine_budget;
          Alcotest.test_case "allocation independent of beam" `Quick
            wfa_alloc_independent_of_beam;
        ] );
      ( "prediction",
        [
          Alcotest.test_case "deterministic at seed" `Quick prediction_deterministic;
          Alcotest.test_case "noiseless covers requests" `Quick
            prediction_noiseless_serves;
          Alcotest.test_case "FtP feasible" `Quick ftp_runs_feasibly;
        ] );
      ( "combine",
        [
          Alcotest.test_case "det tracks best" `Quick combiner_det_tracks_best;
          Alcotest.test_case "rand deterministic" `Quick
            combiner_rand_deterministic_with_stream;
          Alcotest.test_case "validates" `Quick combiner_validates;
        ] );
      ( "offline",
        [
          Alcotest.test_case "pick tie-break" `Quick pick_tie_break;
          Alcotest.test_case "optimum = best_upper" `Quick optimum_is_best_upper;
          Alcotest.test_case "single_server 1-D" `Quick
            single_server_matches_line_dp;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_service_and_step; qcheck_wfa_matches_reference;
            qcheck_flow_matches_reference ] );
    ]
