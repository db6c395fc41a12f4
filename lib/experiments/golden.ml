module Config = Mobile_server.Config
module Engine = Mobile_server.Engine
module Instance = Mobile_server.Instance
module Mtc = Mobile_server.Mtc
module Variant = Mobile_server.Variant

let instance () =
  Workloads.Clusters.generate ~dim:2 ~t:120
    (Prng.Stream.named ~name:"t1-clusters" ~seed:42)

let config () = Config.make ~d_factor:4.0 ~move_limit:1.0 ~delta:0.0 ()

let trajectory_string () =
  let inst = instance () in
  let run = Engine.run (config ()) Mtc.algorithm inst in
  let start = inst.Instance.start in
  let buf = Buffer.create 8192 in
  let coords v =
    Array.iter (fun c -> Printf.bprintf buf " %.17g" c) v;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf "# mobile-server-trajectory v1\n";
  Printf.bprintf buf "dim %d\nrounds %d\nstart" (Array.length start)
    (Array.length run.Engine.positions);
  coords start;
  Array.iteri
    (fun t p ->
      Printf.bprintf buf "pos %d" t;
      coords p)
    run.Engine.positions;
  Buffer.contents buf

let golden_path = "test/golden/t1_default.trajectory"

(* Hex MD5 of the 64-bit little-endian words [emit] adds. *)
let md5_le emit =
  let buf = Buffer.create 4096 in
  emit (Buffer.add_int64_le buf);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* --- Line_dp capture ------------------------------------------------- *)

(* Round [t] emptied when [t mod 3 = 1], plus the first two rounds, so
   the DP runs r = 0 rounds at the start and between served ones. *)
let with_empty_rounds inst =
  Instance.make ~start:inst.Instance.start
    (Array.mapi
       (fun t round -> if t < 2 || t mod 3 = 1 then [||] else round)
       inst.Instance.steps)

let line_dp_cases () =
  let clusters ?(r_min = 1) ?(r_max = 4) ?(arena = 10.0) ?(drift = 0.3) ~t
      seed =
    Workloads.Clusters.generate ~r_min ~r_max ~sigma:1.0 ~drift ~arena
      ~dim:1 ~t
      (Prng.Stream.named ~name:"golden-line-dp" ~seed)
  in
  let mf = ("mf", Variant.Move_first) and sf = ("sf", Variant.Serve_first) in
  let case name ~d ?(m = 1.0) ?(grid_per_m = 64) (vname, variant) inst =
    ( Printf.sprintf "%s-%s-d%g-m%g-g%d" name vname d m grid_per_m,
      Config.make ~d_factor:d ~move_limit:m ~variant (),
      grid_per_m,
      inst )
  in
  let both name ~d ?m inst = [ case name ~d ?m mf inst; case name ~d ?m sf inst ] in
  (* Every grid_per_m under both variants, D cycling through [ds]. *)
  let ds = [| 1.0; 2.0; 4.0; 7.5; 9.0 |] in
  let sweep name inst =
    List.concat
      (List.mapi
         (fun i grid_per_m ->
           [ case name ~d:ds.(2 * i mod 5) ~grid_per_m mf inst;
             case name ~d:ds.(((2 * i) + 1) mod 5) ~m:1.3 ~grid_per_m sf inst ])
         [ 1; 5; 64; 126 ])
  in
  (* perfbench's ratio-line instances: T = 400, two requests a round. *)
  let ratio_line seed = clusters ~r_min:2 ~r_max:2 ~arena:20.0 ~t:400 seed in
  List.concat
    [
      [ case "ratio-line-s1" ~d:4.0 mf (ratio_line 1);
        case "ratio-line-s2" ~d:4.0 mf (ratio_line 2);
        case "ratio-line-s1" ~d:4.0 sf (ratio_line 1) ];
      sweep "clusters" (clusters ~t:120 3);
      sweep "holes" (with_empty_rounds (clusters ~t:150 4));
      both "all-empty" ~d:2.0 (Instance.make ~start:[| 0.5 |] (Array.make 5 [||]));
      (* A wide hull at tiny m: the grid budget, not m, sets the pitch. *)
      both "by-width" ~d:4.0 ~m:0.02 (clusters ~arena:50.0 ~drift:2.0 ~t:20 5);
    ]

let trajectory_md5 positions =
  md5_le (fun add ->
      Array.iter
        (fun (p : Geometry.Vec.t) -> add (Int64.bits_of_float p.(0)))
        positions)

let line_dp_string () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "# Line_dp golden v1: <case> cost=<%h> pitch=<%h> traj=<md5 of IEEE bits>\n";
  List.iter
    (fun (name, config, grid_per_m, inst) ->
      let sol = Offline.Line_dp.solve ~grid_per_m config inst in
      Printf.bprintf buf "%s cost=%h pitch=%h traj=%s\n" name
        sol.Offline.Line_dp.cost sol.Offline.Line_dp.grid_pitch
        (trajectory_md5 sol.Offline.Line_dp.positions))
    (line_dp_cases ());
  Buffer.contents buf

let line_dp_path = "test/golden/line_dp_v1.txt"

(* --- fleet capture --------------------------------------------------- *)

let fleet_instances () =
  List.map
    (fun (dim, seed) ->
      ( Printf.sprintf "d%d-s%d" dim seed,
        Workloads.Hotspots.generate ~hotspots:3 ~dim ~t:40
          (Prng.Stream.named ~name:"golden-fleet" ~seed) ))
    [ (1, 1); (2, 2); (2, 3); (3, 4) ]

let fleet_algorithms ~k inst =
  let ftp () = Multi.Fleet_prediction.algorithm ~k ~sigma:0.5 ~seed:7 inst in
  let candidates () =
    [ Multi.Fleet_wfa.algorithm (); ftp (); Multi.Fleet_mtc.independent ]
  in
  [
    Multi.Fleet_wfa.algorithm ();
    ftp ();
    Multi.Fleet_mtc.independent;
    Multi.Fleet_mtc.greedy_partition;
    Multi.Fleet_mtc.kmeans_tracker;
    Multi.Fleet_algorithm.stay_put;
    Multi.Fleet_combine.deterministic (candidates ());
    Multi.Fleet_combine.randomized (candidates ());
  ]

let fleets_md5 fleets =
  md5_le (fun add ->
      Array.iter
        (Array.iter (Array.iter (fun x -> add (Int64.bits_of_float x))))
        fleets)

let fleet_string () =
  let buf = Buffer.create 16384 in
  Buffer.add_string buf
    "# Fleet golden v1: <instance> k=<k> <variant> <algorithm> \
     move=<%h> service=<%h> fleets=<md5 of IEEE bits>\n\
     # and <instance> k=<k> <variant> optimum=<%h> <label>\n";
  List.iter
    (fun (iname, inst) ->
      List.iter
        (fun k ->
          List.iter
            (fun (vname, variant) ->
              let config =
                Config.make ~d_factor:2.0 ~move_limit:1.0 ~delta:0.5 ~variant ()
              in
              List.iter
                (fun (alg : Multi.Fleet_algorithm.t) ->
                  let run =
                    Multi.Fleet_engine.run
                      ~rng:(Prng.Stream.named ~name:"golden-fleet-run" ~seed:k)
                      ~k config alg inst
                  in
                  let cost = run.Multi.Fleet_engine.cost in
                  Printf.bprintf buf "%s k=%d %s %s move=%h service=%h fleets=%s\n"
                    iname k vname alg.Multi.Fleet_algorithm.name
                    cost.Mobile_server.Cost.move
                    cost.Mobile_server.Cost.service
                    (fleets_md5 run.Multi.Fleet_engine.fleets))
                (fleet_algorithms ~k inst);
              let opt, label =
                Multi.Fleet_offline.best_upper ~k config inst
                  (Prng.Stream.named ~name:"golden-fleet-opt" ~seed:k)
              in
              Printf.bprintf buf "%s k=%d %s optimum=%h %s\n" iname k vname opt
                label)
            [ ("mf", Variant.Move_first); ("sf", Variant.Serve_first) ])
        [ 1; 2; 3; 4 ])
    (fleet_instances ());
  Buffer.contents buf

let fleet_path = "test/golden/fleet_v1.txt"

(* --- fleet flow capture ---------------------------------------------- *)

(* Requests on the 1/4 lattice of [-1, 1]^dim: few distinct points, so
   equal distances, duplicate requests and tied reduced costs abound. *)
let lattice_instance ~dim ~t ~r_max seed =
  let rng = Prng.Stream.named ~name:"golden-fleet-flow-lattice" ~seed in
  Instance.make ~start:(Array.make dim 0.0)
    (Array.init t (fun _ ->
         Array.init
           (1 + Prng.Xoshiro.next_below rng r_max)
           (fun _ ->
             Array.init dim (fun _ ->
                 float_of_int (Prng.Xoshiro.next_below rng 9 - 4) /. 4.0))))

(* (name, instance, ks); every case is solved at D = 2. *)
let fleet_flow_cases () =
  let f1 seed =
    ( Printf.sprintf "f1-s%d" seed,
      Workloads.Hotspots.generate ~hotspots:3 ~dim:2 ~t:40
        (Prng.Stream.named ~name:"golden-fleet-flow" ~seed),
      [ 2; 3; 4 ] )
  in
  let lattice ~dim ~t ~r_max seed =
    ( Printf.sprintf "lattice-d%d-t%d-s%d" dim t seed,
      lattice_instance ~dim ~t ~r_max seed,
      [ 1; 2; 3; 4; 5; 6 ] )
  in
  (* bench fleet's flow-vs-brute instances, quick and full. *)
  let brute (k, t, seed) =
    ( Printf.sprintf "bench-brute-t%d-s%d" t seed,
      Workloads.Hotspots.generate ~hotspots:1 ~r_min:1 ~r_max:1 ~dim:2 ~t
        (Prng.Stream.named ~name:"bench-fleet" ~seed),
      [ k ] )
  in
  List.concat
    [
      List.map f1 [ 1; 2; 3 ];
      List.map (lattice ~dim:1 ~t:12 ~r_max:3) [ 1; 2; 3; 4; 5; 6 ];
      List.map (lattice ~dim:2 ~t:10 ~r_max:3) [ 7; 8; 9; 10; 11; 12 ];
      List.map brute
        [ (2, 10, 3); (3, 8, 4); (2, 18, 3); (2, 14, 5); (3, 12, 4);
          (3, 10, 6) ];
    ]

let chains_md5 chains =
  md5_le (fun add ->
      add (Int64.of_int (Array.length chains));
      Array.iter
        (fun chain ->
          add (Int64.of_int (Array.length chain));
          Array.iter (fun j -> add (Int64.of_int j)) chain)
        chains)

let fleet_flow_string () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "# Fleet flow golden v1: <case> k=<k> cost=<%h> chains=<md5 of the \
     chain count, then each chain's length and indices>\n";
  List.iter
    (fun (name, (inst : Instance.t), ks) ->
      let requests = Array.concat (Array.to_list inst.Instance.steps) in
      List.iter
        (fun k ->
          let cost, chains =
            Multi.Fleet_flow.solve ~d_factor:2.0 ~start:inst.Instance.start
              ~requests ~k
          in
          Printf.bprintf buf "%s k=%d cost=%h chains=%s\n" name k cost
            (chains_md5 chains))
        ks)
    (fleet_flow_cases ());
  Buffer.contents buf

let fleet_flow_path = "test/golden/fleet_flow_v1.txt"

(* --- Convex_opt capture ---------------------------------------------- *)

(* (name, config, max_iter, sweeps, instance).  Every clusters and
   lattice instance runs under both variants, D in {1, 2, 4, 7.5},
   m in {0.5, 1, 1.3} and both knob settings; the f1 instances run at
   perfbench fleet-f1's model and the solver's default knobs. *)
let convex_cases () =
  let clusters ~dim ~t seed =
    Workloads.Clusters.generate ~r_min:1 ~r_max:4 ~sigma:1.0 ~drift:0.4
      ~arena:6.0 ~dim ~t
      (Prng.Stream.named ~name:"golden-convex" ~seed)
  in
  let variants = [ ("mf", Variant.Move_first); ("sf", Variant.Serve_first) ] in
  let knobs = [ ("i400-s30", 400, 30); ("i40-s4", 40, 4) ] in
  let sweep name inst =
    List.concat_map
      (fun (vname, variant) ->
        List.concat_map
          (fun d ->
            List.concat_map
              (fun m ->
                List.map
                  (fun (kname, max_iter, sweeps) ->
                    ( Printf.sprintf "%s-%s-d%g-m%g-%s" name vname d m kname,
                      Config.make ~d_factor:d ~move_limit:m ~variant (),
                      max_iter,
                      sweeps,
                      inst ))
                  knobs)
              [ 0.5; 1.0; 1.3 ])
          [ 1.0; 2.0; 4.0; 7.5 ])
      variants
  in
  let f1 seed =
    let inst =
      Workloads.Hotspots.generate ~hotspots:3 ~dim:2 ~t:40
        (Prng.Stream.named ~name:"golden-convex-f1" ~seed)
    in
    List.map
      (fun (vname, variant) ->
        ( Printf.sprintf "f1-s%d-%s" seed vname,
          Config.make ~d_factor:2.0 ~move_limit:1.0 ~delta:0.5 ~variant (),
          400,
          30,
          inst ))
      variants
  in
  let lattice seed =
    sweep (Printf.sprintf "lattice-d2-s%d" seed)
      (lattice_instance ~dim:2 ~t:10 ~r_max:3 (100 + seed))
  in
  List.concat
    [
      sweep "clusters-d1" (clusters ~dim:1 ~t:14 1);
      sweep "holes-d1" (with_empty_rounds (clusters ~dim:1 ~t:16 2));
      sweep "clusters-d2" (clusters ~dim:2 ~t:12 3);
      sweep "holes-d2" (with_empty_rounds (clusters ~dim:2 ~t:14 4));
      sweep "clusters-d3" (clusters ~dim:3 ~t:10 5);
      sweep "holes-d3" (with_empty_rounds (clusters ~dim:3 ~t:12 6));
      List.concat_map f1 [ 1; 2; 3 ];
      lattice 1;
      lattice 2;
    ]

let positions_md5 positions =
  md5_le (fun add ->
      Array.iter
        (Array.iter (fun x -> add (Int64.bits_of_float x)))
        positions)

let convex_string () =
  let buf = Buffer.create 32768 in
  Buffer.add_string buf
    "# Convex_opt golden v1: <case> cost=<%h> traj=<md5 of IEEE bits> \
     iters=<subgradient iterations> sweeps=<descent sweeps>\n";
  List.iter
    (fun (name, config, max_iter, sweeps, inst) ->
      let sol = Offline.Convex_opt.solve ~max_iter ~sweeps config inst in
      Printf.bprintf buf "%s cost=%h traj=%s iters=%d sweeps=%d\n" name
        sol.Offline.Convex_opt.cost
        (positions_md5 sol.Offline.Convex_opt.positions)
        sol.Offline.Convex_opt.subgradient_iterations
        sol.Offline.Convex_opt.descent_sweeps)
    (convex_cases ());
  Buffer.contents buf

let convex_path = "test/golden/convex_v1.txt"

(* --- network capture ------------------------------------------------- *)

(* Small graphs of every generator family; the unit-length ones (grid,
   cycle, complete) are where the DP's argmin meets exact ties. *)
let network_graphs () =
  let rng seed = Prng.Stream.named ~name:"golden-network" ~seed in
  [
    ("geometric-n16", fst (Network.Graph.random_geometric ~n:16 (rng 1)));
    ("geometric-n24", fst (Network.Graph.random_geometric ~n:24 (rng 2)));
    ("grid-5x4", Network.Graph.grid ~width:5 ~height:4 ());
    ("cycle-12", Network.Graph.cycle 12);
    ("tree-n14", Network.Graph.random_tree ~n:14 (rng 3));
    ("complete-8", Network.Graph.complete 8);
  ]

(* Every graph with its runs: T = 40 uniform and localized requests
   (one stream seed each), each at D in {1, 2.5, 4}; then bench
   network's quick and full instances at D = 4. *)
let network_cases () =
  let per_graph =
    List.mapi
      (fun i (gname, graph) ->
        let rng k =
          Prng.Stream.named ~name:"golden-network-req" ~seed:((2 * i) + k)
        in
        let kinds =
          [ ("uniform", Network.Pm_model.uniform_requests graph ~t:40 (rng 0));
            ( "localized",
              Network.Pm_model.localized_requests graph ~t:40 (rng 1) ) ]
        in
        ( gname,
          graph,
          List.concat_map
            (fun (kind, inst) ->
              List.map
                (fun d -> (Printf.sprintf "%s-d%g" kind d, inst, d))
                [ 1.0; 2.5; 4.0 ])
            kinds ))
      (network_graphs ())
  in
  (* bench network's instance: one stream draws the graph, then four
     requesting nodes a round. *)
  let bench ~n ~t =
    let rng = Prng.Stream.named ~name:"bench-network" ~seed:1 in
    let graph, _layout = Network.Graph.random_geometric ~n rng in
    let inst =
      Network.Pm_model.make_instance graph ~start:0
        (Array.init t (fun _ ->
             Array.init 4 (fun _ -> Prng.Xoshiro.next_below rng n)))
    in
    ( Printf.sprintf "bench-n%d" n,
      graph,
      [ (Printf.sprintf "t%d-d4" t, inst, 4.0) ] )
  in
  per_graph @ [ bench ~n:120 ~t:64; bench ~n:400 ~t:256 ]

let table_md5 metric =
  let flat = Network.Dijkstra.dense_table metric in
  md5_le (fun add ->
      for i = 0 to Geometry.Fbuf.length flat - 1 do
        add (Int64.bits_of_float (Geometry.Fbuf.get flat i))
      done)

let nodes_md5 positions =
  md5_le (fun add -> Array.iter (fun x -> add (Int64.of_int x)) positions)

let network_string () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "# Network golden v1: <graph> <requests> table=<md5 of IEEE bits> \
     cost=<%h> traj=<md5 of node ids>\n";
  List.iter
    (fun (gname, graph, runs) ->
      let metric = Network.Dijkstra.all_pairs graph in
      let table = table_md5 metric in
      List.iter
        (fun (rname, inst, d_factor) ->
          let sol = Network.Pm_offline.solve metric ~d_factor inst in
          Printf.bprintf buf "%s %s table=%s cost=%h traj=%s\n" gname rname
            table sol.Network.Pm_offline.cost
            (nodes_md5 sol.Network.Pm_offline.positions))
        runs)
    (network_cases ());
  Buffer.contents buf

let network_path = "test/golden/network_v1.txt"

(* --- wire-protocol frame fixtures ------------------------------------ *)

let frame_fixtures =
  let open Serve.Frame in
  [
    ( "req-open",
      `Req (Open { session = 1L; seed = 42; start = [| 0.0; 0.0 |] }) );
    ( "req-open-neg-id",
      `Req (Open { session = -1L; seed = 987654321; start = [| 1.5 |] }) );
    ( "req-step",
      `Req
        (Step
           { session = 7L; requests = [| [| 1.0; 2.0 |]; [| -0.5; 3.25 |] |] })
    );
    ("req-step-empty", `Req (Step { session = 7L; requests = [||] }));
    ("req-checkpoint", `Req (Checkpoint { session = 99L }));
    ("req-close", `Req (Close { session = 99L }));
    ("rep-opened", `Rep (Opened { session = 1L }));
    ( "rep-stepped",
      `Rep
        (Stepped
           {
             session = 7L;
             position = [| 0.25; 0.75 |];
             move = 0.125;
             service = 2.5;
             clamped = true;
           }) );
    ( "rep-stepped-unclamped",
      `Rep
        (Stepped
           {
             session = 8L;
             position = [| -0.0 |];
             move = 0.0;
             service = 0.1;
             clamped = false;
           }) );
    ( "rep-snapshot",
      `Rep
        (Snapshot
           {
             session = 7L;
             rounds = 12;
             clamped_rounds = 3;
             position = [| 1.0 |];
             move = 4.5;
             service = 9.0;
           }) );
    ( "rep-closed",
      `Rep
        (Closed
           {
             session = 0x0123456789abcdefL;
             rounds = 1_000_000;
             clamped_rounds = 0;
             position = [| 3.141592653589793 |];
             move = 1e-12;
             service = 1e12;
           }) );
    ( "rep-error-bad-frame",
      `Rep
        (Error
           {
             session = 0L;
             code = Bad_frame;
             message = "bad version tag 0x7f (expected 0x01)";
           }) );
    ( "rep-error-unknown",
      `Rep
        (Error
           {
             session = 5L;
             code = Unknown_session;
             message = "session 5 is not live";
           }) );
  ]

let frames_string () =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "# Wire-protocol v1 frame fixtures; regenerate with \
     tools/gen_golden/gen_golden.exe frames.\n";
  List.iter
    (fun (name, value) ->
      let bytes =
        match value with
        | `Req r -> Serve.Frame.encode_request r
        | `Rep r -> Serve.Frame.encode_reply r
      in
      Printf.bprintf buf "%s " name;
      String.iter (fun ch -> Printf.bprintf buf "%02x" (Char.code ch)) bytes;
      Buffer.add_char buf '\n')
    frame_fixtures;
  Buffer.contents buf
