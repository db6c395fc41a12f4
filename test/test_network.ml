(* Tests for the network substrate: graphs, shortest paths, classical
   Page Migration and the embedding bridge. *)

module G = Network.Graph
module Dij = Network.Dijkstra
module PM = Network.Pm_model

let check_float = Alcotest.(check (float 1e-9))

let rng_of seed = Prng.Stream.named ~name:"network-test" ~seed

(* --- Graph ----------------------------------------------------------- *)

let graph_of_edges_validates () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.of_edges: self-loop")
    (fun () -> ignore (G.of_edges ~nodes:2 [ (0, 0, 1.0) ]));
  Alcotest.check_raises "bad weight"
    (Invalid_argument "Graph.of_edges: edge length must be positive")
    (fun () -> ignore (G.of_edges ~nodes:2 [ (0, 1, 0.0) ]));
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Graph.of_edges: duplicate edge") (fun () ->
      ignore (G.of_edges ~nodes:2 [ (0, 1, 1.0); (1, 0, 2.0) ]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.of_edges: endpoint out of range") (fun () ->
      ignore (G.of_edges ~nodes:2 [ (0, 2, 1.0) ]))

let graph_generators_shapes () =
  Alcotest.(check int) "path nodes" 5 (G.nodes (G.path 5));
  Alcotest.(check int) "path edges" 4 (List.length (G.edges (G.path 5)));
  Alcotest.(check int) "cycle edges" 6 (List.length (G.edges (G.cycle 6)));
  Alcotest.(check int) "star edges" 7 (List.length (G.edges (G.star 8)));
  Alcotest.(check int) "complete edges" 15
    (List.length (G.edges (G.complete 6)));
  Alcotest.(check int) "grid nodes" 12
    (G.nodes (G.grid ~width:4 ~height:3 ()));
  Alcotest.(check int) "tree edges" 9
    (List.length (G.edges (G.random_tree ~n:10 (rng_of 1))))

let graph_generators_connected () =
  List.iter
    (fun (name, g) ->
      Alcotest.(check bool) (name ^ " connected") true (G.is_connected g))
    [
      ("path", G.path 7); ("cycle", G.cycle 7); ("star", G.star 7);
      ("complete", G.complete 7); ("grid", G.grid ~width:3 ~height:4 ());
      ("tree", G.random_tree ~n:15 (rng_of 2));
      ("geometric", fst (G.random_geometric ~n:20 (rng_of 3)));
    ]

let geometric_layout_matches () =
  let g, layout = G.random_geometric ~n:15 (rng_of 4) in
  Alcotest.(check int) "layout size" (G.nodes g) (Array.length layout);
  (* Every edge length equals the Euclidean distance of its layout. *)
  List.iter
    (fun (u, v, len) ->
      Alcotest.(check (float 1e-6)) "edge = distance"
        (Geometry.Vec.dist layout.(u) layout.(v))
        len)
    (G.edges g)

let graph_csr_accessors () =
  let g = fst (G.random_geometric ~n:20 (rng_of 19)) in
  for u = 0 to G.nodes g - 1 do
    let lst = G.neighbors g u in
    Alcotest.(check int) "degree" (List.length lst) (G.degree g u);
    List.iteri
      (fun k (v, len) ->
        let v', len' = G.neighbor g u k in
        Alcotest.(check int) "target" v v';
        check_float "length" len len')
      lst
  done;
  Alcotest.check_raises "index out of range"
    (Invalid_argument "Graph.neighbor: neighbor index out of range") (fun () ->
      ignore (G.neighbor g 0 (G.degree g 0)))

(* --- Dijkstra --------------------------------------------------------- *)

let dijkstra_path_graph () =
  let metric = Dij.all_pairs (G.path ~edge_length:2.0 5) in
  check_float "0 to 4" 8.0 (Dij.distance metric 0 4);
  check_float "2 to 2" 0.0 (Dij.distance metric 2 2);
  check_float "diameter" 8.0 (Dij.diameter metric)

let dijkstra_triangle_inequality () =
  let g = fst (G.random_geometric ~n:18 (rng_of 5)) in
  let metric = Dij.all_pairs g in
  let n = Dij.size metric in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      for w = 0 to n - 1 do
        if Dij.distance metric u w
           > Dij.distance metric u v +. Dij.distance metric v w +. 1e-9
        then Alcotest.failf "triangle violated at %d %d %d" u v w
      done
    done
  done

let dijkstra_symmetric () =
  let g = G.random_tree ~n:12 (rng_of 6) in
  let metric = Dij.all_pairs g in
  for u = 0 to 11 do
    for v = 0 to 11 do
      check_float "symmetric" (Dij.distance metric u v)
        (Dij.distance metric v u)
    done
  done

let dijkstra_rejects_disconnected () =
  let g = G.of_edges ~nodes:4 [ (0, 1, 1.0); (2, 3, 1.0) ] in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Dijkstra.all_pairs: graph is not connected") (fun () ->
      ignore (Dij.all_pairs g))

let dijkstra_nearest () =
  let metric = Dij.all_pairs (G.path 6) in
  Alcotest.(check int) "nearest" 3 (Dij.nearest metric 2 [ 5; 3; 0 ])

let bit_eq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* --- Page Migration model --------------------------------------------- *)

let pm_hand_computed () =
  (* Path 0-1-2, D = 2.  Requests at node 2 three times.  Greedy jumps
     there in round 1: move 2·2 = 4, then services 0.  Total 4. *)
  let g = G.path 3 in
  let metric = Dij.all_pairs g in
  let inst = PM.make_instance g ~start:0 [| [| 2 |]; [| 2 |]; [| 2 |] |] in
  let run = PM.run metric ~d_factor:2.0 Network.Pm_algorithms.greedy inst in
  check_float "greedy total" 4.0 (PM.total run);
  (* Stay-put services 2 + 2 + 2 = 6. *)
  let stay = PM.run metric ~d_factor:2.0 Network.Pm_algorithms.stay_put inst in
  check_float "stay-put total" 6.0 (PM.total stay)

let pm_offline_exact () =
  (* Same instance: OPT = move to 2 immediately (cost 4) — or stay (6);
     OPT = 4. *)
  let g = G.path 3 in
  let metric = Dij.all_pairs g in
  let inst = PM.make_instance g ~start:0 [| [| 2 |]; [| 2 |]; [| 2 |] |] in
  let sol = Network.Pm_offline.solve metric ~d_factor:2.0 inst in
  check_float "opt" 4.0 sol.Network.Pm_offline.cost;
  (* The reported trajectory prices to the reported cost. *)
  check_float "self-consistent" sol.Network.Pm_offline.cost
    (PM.replay metric ~d_factor:2.0 ~start:0 sol.Network.Pm_offline.positions
       inst)

let pm_offline_beats_all_online () =
  let g = fst (G.random_geometric ~n:16 (rng_of 7)) in
  let metric = Dij.all_pairs g in
  let inst = PM.localized_requests g ~t:120 (rng_of 8) in
  let opt = Network.Pm_offline.optimum metric ~d_factor:3.0 inst in
  List.iter
    (fun alg ->
      let run =
        PM.run ~rng:(rng_of 9) metric ~d_factor:3.0 alg inst
      in
      if PM.total run < opt -. 1e-6 then
        Alcotest.failf "%s (%g) beat the exact optimum (%g)"
          alg.PM.name (PM.total run) opt)
    Network.Pm_algorithms.all

let pm_classical_ratios_sane () =
  (* Smoke-check the published competitiveness: on localized requests
     over a uniform complete graph, coin-flip and move-to-min stay well
     under their worst-case constants. *)
  let g = G.complete 12 in
  let metric = Dij.all_pairs g in
  let inst = PM.localized_requests g ~t:300 (rng_of 10) in
  let opt = Network.Pm_offline.optimum metric ~d_factor:4.0 inst in
  let ratio alg =
    PM.total (PM.run ~rng:(rng_of 11) metric ~d_factor:4.0 alg inst) /. opt
  in
  let cf = ratio Network.Pm_algorithms.coin_flip in
  let mtm = ratio Network.Pm_algorithms.move_to_min in
  if cf > 4.0 then Alcotest.failf "coin-flip ratio %g above ~3" cf;
  if mtm > 7.5 then Alcotest.failf "move-to-min ratio %g above 7" mtm

let pm_instance_validates () =
  let g = G.path 3 in
  Alcotest.check_raises "bad start"
    (Invalid_argument "Pm_model.make_instance: start out of range") (fun () ->
      ignore (PM.make_instance g ~start:5 [||]))

let pm_workloads_deterministic () =
  let g = G.grid ~width:4 ~height:4 () in
  let a = PM.localized_requests g ~t:50 (rng_of 12) in
  let b = PM.localized_requests g ~t:50 (rng_of 12) in
  Alcotest.(check bool) "same rounds" true (a.PM.rounds = b.PM.rounds)

let pm_offline_matches_brute_force () =
  (* Tiny instances (n ≤ 4, T ≤ 4): the DP must price exactly like the
     best of all n^T trajectories replayed through the cost model. *)
  List.iter
    (fun (seed, d) ->
      let g = fst (G.random_geometric ~n:4 (rng_of seed)) in
      let metric = Dij.all_pairs g in
      let t = 4 in
      let inst = PM.uniform_requests g ~t (rng_of (seed + 100)) in
      let sol = Network.Pm_offline.solve metric ~d_factor:d inst in
      let n = G.nodes g in
      let best = ref infinity in
      let positions = Array.make t 0 in
      let rec go i =
        if i = t then begin
          let c =
            PM.replay metric ~d_factor:d ~start:inst.PM.start positions inst
          in
          if c < !best then best := c
        end
        else
          for v = 0 to n - 1 do
            positions.(i) <- v;
            go (i + 1)
          done
      in
      go 0;
      check_float "DP = brute force" !best sol.Network.Pm_offline.cost)
    [ (20, 1.0); (21, 2.5); (22, 4.0) ]

let pm_optimum_cached_matches_solve () =
  let g = fst (G.random_geometric ~n:12 (rng_of 23)) in
  let metric = Dij.all_pairs g in
  let inst = PM.localized_requests g ~t:40 (rng_of 24) in
  let sol = Network.Pm_offline.solve metric ~d_factor:3.0 inst in
  let cached =
    Network.Pm_offline.optimum_cached ~graph:g metric ~d_factor:3.0 inst
  in
  if not (bit_eq sol.Network.Pm_offline.cost cached) then
    Alcotest.failf "cached optimum %g differs from solve %g" cached
      sol.Network.Pm_offline.cost

(* test/golden/network_v1.txt was captured while bench network still
   checked the CSR table and DP against a replica of the pre-CSR code,
   which reproduced every line; lib/experiments/golden.mli has the
   rules.  Never regenerate it to silence this test. *)
let pm_golden_capture () =
  let path =
    if Sys.file_exists "golden/network_v1.txt" then "golden/network_v1.txt"
    else Experiments.Golden.network_path
  in
  Alcotest.(check string) "byte identical"
    (In_channel.with_open_bin path In_channel.input_all)
    (Experiments.Golden.network_string ())

(* --- Embedding -------------------------------------------------------- *)

let embedding_round_trip () =
  let g, layout = G.random_geometric ~n:14 (rng_of 13) in
  let inst = PM.localized_requests g ~t:40 (rng_of 14) in
  let mobile = Network.Embedding.to_mobile_instance ~layout inst in
  Alcotest.(check int) "length preserved" 40
    (Mobile_server.Instance.length mobile);
  Alcotest.(check int) "dim 2" 2 (Mobile_server.Instance.dim mobile);
  (* Request coordinates match the layout. *)
  Array.iteri
    (fun t round ->
      Array.iteri
        (fun i v ->
          let node = inst.PM.rounds.(t).(i) in
          if Geometry.Vec.dist v layout.(node) > 1e-9 then
            Alcotest.fail "coordinates do not match layout")
        round)
    mobile.Mobile_server.Instance.steps

let embedding_gap_nonnegative () =
  let g, layout = G.random_geometric ~n:14 (rng_of 15) in
  let metric = Dij.all_pairs g in
  let gap = Network.Embedding.round_trip_gap ~metric ~layout in
  if gap < -1e-9 then
    Alcotest.failf "graph distances shorter than Euclidean: %g" gap

let embedding_uncapped_page_cheaper () =
  (* The uncapped graph optimum must not cost more than the capped
     Euclidean optimum of the embedded instance when the graph metric
     is close to Euclidean (gap small), for a small cap. *)
  let g, layout = G.random_geometric ~n:14 (rng_of 16) in
  let metric = Dij.all_pairs g in
  let inst = PM.localized_requests g ~t:60 (rng_of 17) in
  let mobile = Network.Embedding.to_mobile_instance ~layout inst in
  let uncapped = Network.Pm_offline.optimum metric ~d_factor:3.0 inst in
  let config =
    Mobile_server.Config.make ~d_factor:3.0 ~move_limit:0.2 ()
  in
  let capped = Offline.Convex_opt.optimum ~max_iter:100 config mobile in
  let gap = Network.Embedding.round_trip_gap ~metric ~layout in
  if capped < uncapped /. (1.0 +. gap) -. 1e-6 then
    Alcotest.failf "capped optimum (%g) beat the uncapped one (%g, gap %g)"
      capped uncapped gap

(* --- QCheck ----------------------------------------------------------- *)

let qcheck_dijkstra_vs_bfs_on_uniform =
  QCheck.Test.make ~count:20
    ~name:"dijkstra on uniform-length graphs = hop count"
    QCheck.(int_range 3 12)
    (fun n ->
      let g = G.cycle n in
      let metric = Dij.all_pairs g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let hops =
            let direct = abs (u - v) in
            Stdlib.min direct (n - direct)
          in
          if Float.abs (Dij.distance metric u v -. float_of_int hops) > 1e-9
          then ok := false
        done
      done;
      !ok)

let qcheck_dijkstra_vs_floyd_warshall =
  QCheck.Test.make ~count:25 ~name:"dijkstra = floyd-warshall on random graphs"
    QCheck.(pair (int_range 3 14) (int_range 0 999))
    (fun (n, seed) ->
      let g = fst (G.random_geometric ~n (rng_of (1000 + seed))) in
      let metric = Dij.all_pairs g in
      let fw = Array.make_matrix n n infinity in
      for i = 0 to n - 1 do
        fw.(i).(i) <- 0.0
      done;
      List.iter
        (fun (u, v, len) ->
          if len < fw.(u).(v) then begin
            fw.(u).(v) <- len;
            fw.(v).(u) <- len
          end)
        (G.edges g);
      for k = 0 to n - 1 do
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            let via = fw.(i).(k) +. fw.(k).(j) in
            if via < fw.(i).(j) then fw.(i).(j) <- via
          done
        done
      done;
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if Float.abs (Dij.distance metric u v -. fw.(u).(v)) > 1e-9 then
            ok := false
        done
      done;
      !ok)

let qcheck_metric_symmetry_and_triangle =
  QCheck.Test.make ~count:25 ~name:"metric is symmetric and triangular"
    QCheck.(pair (int_range 4 16) (int_range 0 999))
    (fun (n, seed) ->
      let g = fst (G.random_geometric ~n (rng_of (2000 + seed))) in
      let metric = Dij.all_pairs g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if Float.abs (Dij.distance metric u v -. Dij.distance metric v u)
             > 1e-9
          then ok := false;
          for w = 0 to n - 1 do
            if Dij.distance metric u w
               > Dij.distance metric u v +. Dij.distance metric v w +. 1e-9
            then ok := false
          done
        done
      done;
      !ok)

let () =
  Alcotest.run "network"
    [
      ( "graph",
        [
          Alcotest.test_case "of_edges validates" `Quick graph_of_edges_validates;
          Alcotest.test_case "generator shapes" `Quick graph_generators_shapes;
          Alcotest.test_case "generators connected" `Quick
            graph_generators_connected;
          Alcotest.test_case "geometric layout" `Quick geometric_layout_matches;
          Alcotest.test_case "csr accessors" `Quick graph_csr_accessors;
        ] );
      ( "dijkstra",
        [
          Alcotest.test_case "path graph" `Quick dijkstra_path_graph;
          Alcotest.test_case "triangle inequality" `Quick
            dijkstra_triangle_inequality;
          Alcotest.test_case "symmetric" `Quick dijkstra_symmetric;
          Alcotest.test_case "rejects disconnected" `Quick
            dijkstra_rejects_disconnected;
          Alcotest.test_case "nearest" `Quick dijkstra_nearest;
        ] );
      ( "page-migration",
        [
          Alcotest.test_case "hand computed" `Quick pm_hand_computed;
          Alcotest.test_case "offline exact" `Quick pm_offline_exact;
          Alcotest.test_case "offline beats online" `Quick
            pm_offline_beats_all_online;
          Alcotest.test_case "classical ratios" `Quick pm_classical_ratios_sane;
          Alcotest.test_case "instance validates" `Quick pm_instance_validates;
          Alcotest.test_case "workloads deterministic" `Quick
            pm_workloads_deterministic;
          Alcotest.test_case "offline matches brute force" `Quick
            pm_offline_matches_brute_force;
          Alcotest.test_case "cached optimum matches solve" `Quick
            pm_optimum_cached_matches_solve;
          Alcotest.test_case "golden capture" `Quick pm_golden_capture;
        ] );
      ( "embedding",
        [
          Alcotest.test_case "round trip" `Quick embedding_round_trip;
          Alcotest.test_case "gap non-negative" `Quick embedding_gap_nonnegative;
          Alcotest.test_case "uncapped cheaper" `Quick
            embedding_uncapped_page_cheaper;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            qcheck_dijkstra_vs_bfs_on_uniform;
            qcheck_dijkstra_vs_floyd_warshall;
            qcheck_metric_symmetry_and_triangle;
          ] );
    ]
