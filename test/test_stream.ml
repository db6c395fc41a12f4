(* Tests for the streaming substrate: Fbuf basics, Engine.run_stream,
   workload cursors and Open_world.iter_stream must all be
   bit-identical to their materialized counterparts, Driver.run must
   answer identically with journaling on and off, and the streaming
   paths must run in memory independent of the horizon. *)

module Vec = Geometry.Vec
module Fbuf = Geometry.Fbuf
module Config = Mobile_server.Config
module Instance = Mobile_server.Instance
module Cost = Mobile_server.Cost
module Engine = Mobile_server.Engine

let bits = Int64.bits_of_float

let same_bits a b = Int64.equal (bits a) (bits b)

(* Vec.t is a bare float array; compare coordinates bitwise. *)
let same_vec (a : Vec.t) (b : Vec.t) =
  Vec.dim a = Vec.dim b && Array.for_all2 same_bits a b

let rng_of seed = Prng.Stream.named ~name:"stream-test" ~seed

(* --- Fbuf ---------------------------------------------------------- *)

let fbuf_create_zeroed () =
  let b = Fbuf.create 17 in
  Alcotest.(check int) "length" 17 (Fbuf.length b);
  for i = 0 to 16 do
    Alcotest.(check bool) "zero" true (same_bits 0.0 (Fbuf.get b i))
  done

let finite_array =
  QCheck.(array_of_size Gen.(int_range 0 64) (float_range (-1e6) 1e6))

(* A fresh buffer with [a]'s elements, and a fresh array with [b]'s. *)
let fbuf_of a =
  let b = Fbuf.create (Array.length a) in
  Fbuf.blit_from_array a 0 b 0 (Array.length a);
  b

let array_of b =
  let a = Array.make (Fbuf.length b) 0.0 in
  Fbuf.blit_to_array b 0 a 0 (Fbuf.length b);
  a

let qcheck_fbuf_roundtrip =
  QCheck.Test.make ~count:200
    ~name:"Fbuf blit_from/to_array round-trip bits" finite_array (fun a ->
      let b = fbuf_of a in
      let a' = array_of b in
      Array.length a' = Array.length a
      && Array.for_all2 same_bits a a'
      && Array.for_all (fun i -> same_bits a.(i) (Fbuf.get b i))
           (Array.init (Array.length a) Fun.id))

let qcheck_fbuf_blit =
  QCheck.Test.make ~count:200 ~name:"Fbuf.blit matches Array.blit bitwise"
    QCheck.(
      triple finite_array finite_array (triple small_nat small_nat small_nat))
    (fun (src, dst, (spos, dpos, len)) ->
      let ns = Array.length src and nd = Array.length dst in
      let spos = if ns = 0 then 0 else spos mod ns in
      let dpos = if nd = 0 then 0 else dpos mod nd in
      let len = min len (min (ns - spos) (nd - dpos)) in
      let bsrc = fbuf_of src and bdst = fbuf_of dst in
      Fbuf.blit bsrc spos bdst dpos len;
      let expect = Array.copy dst in
      Array.blit src spos expect dpos len;
      Array.for_all2 same_bits expect (array_of bdst))

(* --- Engine.run_stream ≡ Engine.run -------------------------------- *)

let qcheck_engine_stream =
  QCheck.Test.make ~count:40 ~name:"Engine.run_stream = Engine.run (bitwise)"
    QCheck.(small_nat)
    (fun seed ->
      let inst = Workloads.Clusters.generate ~dim:2 ~t:40 (rng_of seed) in
      let config = Config.make ~d_factor:1.5 ~delta:0.1 () in
      let alg = Mobile_server.Mtc.algorithm in
      let run = Engine.run config alg inst in
      let positions = ref [] in
      let summary =
        Engine.run_stream config alg ~start:inst.Instance.start
          ~rounds:(Array.length inst.Instance.steps)
          ~trace:(fun r -> positions := r.Engine.position :: !positions)
          (fun i -> inst.Instance.steps.(i))
      in
      let positions = Array.of_list (List.rev !positions) in
      summary.Engine.s_rounds = Array.length run.Engine.positions
      && summary.Engine.s_clamped = run.Engine.clamped
      && same_bits summary.Engine.s_cost.Cost.move run.Engine.cost.Cost.move
      && same_bits summary.Engine.s_cost.Cost.service
           run.Engine.cost.Cost.service
      && Array.for_all2 same_vec positions run.Engine.positions
      && same_vec summary.Engine.s_final
           run.Engine.positions.(Array.length run.Engine.positions - 1))

(* --- Workload cursors ≡ generate ----------------------------------- *)

let same_round a b = Array.length a = Array.length b && Array.for_all2 same_vec a b

let cursor_families =
  [
    ( "clusters",
      (fun ~dim ~t rng -> Workloads.Clusters.generate ~dim ~t rng),
      fun ~dim rng -> Workloads.Clusters.cursor ~dim rng );
    ( "bursts",
      (fun ~dim ~t rng -> Workloads.Bursts.generate ~dim ~t rng),
      fun ~dim rng -> Workloads.Bursts.cursor ~dim rng );
    ( "random-walk",
      (fun ~dim ~t rng -> Workloads.Random_walk.generate ~dim ~t rng),
      fun ~dim rng -> Workloads.Random_walk.cursor ~dim rng );
  ]

let qcheck_cursor_matches_generate =
  QCheck.Test.make ~count:40
    ~name:"workload cursor = generate, round for round (bitwise)"
    QCheck.(pair small_nat (int_range 1 60))
    (fun (seed, t) ->
      List.for_all
        (fun (name, generate, cursor) ->
          let dim = 1 + (seed mod 3) in
          let inst = generate ~dim ~t (rng_of seed) in
          let start, next = cursor ~dim (rng_of seed) in
          same_vec start inst.Instance.start
          && Array.for_all
               (fun step -> same_round step (next ()))
               inst.Instance.steps
          || QCheck.Test.fail_reportf "family %s diverged" name)
        cursor_families)

(* --- Open_world.iter_stream ≡ the materialized loop ------------------ *)

module Open_world = Workloads.Open_world

(* Reference: the materialized schedule loop [Open_world.iter] ran
   before [iter_stream] became the only one, copied verbatim onto the
   public accessors.  Plans come from [of_spec]'s array, and each
   session's instance from its family's [generate] (as the old
   [plan_instance] built it), not from [plan_cursor].  Do not edit it
   to make it agree: the event order and the bits are what it pins. *)
let reference_plan_instance t (p : Open_world.plan) =
  let rng =
    Prng.Stream.named ~name:"open-world-session" ~seed:p.Open_world.seed
  in
  let dim = Open_world.dim t and t_len = p.Open_world.rounds in
  match p.Open_world.family with
  | 0 -> Workloads.Clusters.generate ~dim ~t:t_len rng
  | 1 -> Workloads.Bursts.generate ~dim ~t:t_len rng
  | 2 -> Workloads.Random_walk.generate ~dim ~t:t_len rng
  | i -> invalid_arg (Printf.sprintf "reference_plan_instance: family %d" i)

let reference_iter t ~open_ ~step ~close ~tick_end =
  let plans = Open_world.plans t in
  let n = Array.length plans in
  let live = ref [] in
  let cursor = ref 0 in
  for tick = 0 to Open_world.ticks t - 1 do
    let opened = ref [] in
    while !cursor < n && plans.(!cursor).Open_world.arrival = tick do
      let p = plans.(!cursor) in
      incr cursor;
      let inst = reference_plan_instance t p in
      open_ p inst;
      opened := (p, inst) :: !opened
    done;
    live := !live @ List.rev !opened;
    List.iter
      (fun ((p : Open_world.plan), (inst : Instance.t)) ->
        let round = tick - p.Open_world.arrival in
        step p ~round inst.Instance.steps.(round))
      !live;
    live :=
      List.filter
        (fun ((p : Open_world.plan), _) ->
          let finished = tick - p.Open_world.arrival = p.Open_world.rounds - 1 in
          if finished then close p;
          not finished)
        !live;
    tick_end ~tick
  done

let vec_line (v : Vec.t) =
  String.concat ","
    (Array.to_list (Array.map (fun x -> Int64.to_string (bits x)) v))

let round_line reqs =
  String.concat ";" (Array.to_list (Array.map vec_line reqs))

let plan_line (p : Workloads.Open_world.plan) =
  Printf.sprintf "%Ld/%d/%d/%d/%d" p.Workloads.Open_world.id
    p.Workloads.Open_world.seed p.Workloads.Open_world.family
    p.Workloads.Open_world.arrival p.Workloads.Open_world.rounds

let open_world_stream_matches_iter () =
  List.iter
    (fun (seed, ticks, rate, initial) ->
      let spec =
        Workloads.Open_world.spec ~arrival_rate:rate ~mean_lifetime:5.0
          ~initial ~dim:2 ~seed ~ticks ()
      in
      let log_of_iter () =
        let buf = Buffer.create 4096 in
        reference_iter
          (Workloads.Open_world.of_spec spec)
          ~open_:(fun p inst ->
            Buffer.add_string buf
              (Printf.sprintf "open %s @%s\n" (plan_line p)
                 (vec_line inst.Instance.start)))
          ~step:(fun p ~round reqs ->
            Buffer.add_string buf
              (Printf.sprintf "step %Ld r%d %s\n" p.Workloads.Open_world.id
                 round (round_line reqs)))
          ~close:(fun p ->
            Buffer.add_string buf
              (Printf.sprintf "close %Ld\n" p.Workloads.Open_world.id))
          ~tick_end:(fun ~tick ->
            Buffer.add_string buf (Printf.sprintf "tick %d\n" tick));
        Buffer.contents buf
      in
      let log_of_stream () =
        let buf = Buffer.create 4096 in
        Workloads.Open_world.iter_stream spec
          ~open_:(fun p ~start ->
            Buffer.add_string buf
              (Printf.sprintf "open %s @%s\n" (plan_line p) (vec_line start)))
          ~step:(fun p ~round reqs ->
            Buffer.add_string buf
              (Printf.sprintf "step %Ld r%d %s\n" p.Workloads.Open_world.id
                 round (round_line reqs)))
          ~close:(fun p ->
            Buffer.add_string buf
              (Printf.sprintf "close %Ld\n" p.Workloads.Open_world.id))
          ~tick_end:(fun ~tick ->
            Buffer.add_string buf (Printf.sprintf "tick %d\n" tick));
        Buffer.contents buf
      in
      Alcotest.(check string)
        (Printf.sprintf "seed %d identical event log" seed)
        (Digest.to_hex (Digest.string (log_of_iter ())))
        (Digest.to_hex (Digest.string (log_of_stream ()))))
    [ (11, 12, 3.0, 0); (12, 8, 1.5, 6); (13, 20, 0.8, 2) ]

(* --- O(1) memory: horizon grows 100×, live heap does not ----------- *)

let peak_heap_words rounds =
  let rng = rng_of 77 in
  let start, next = Workloads.Clusters.cursor ~dim:2 rng in
  let config = Config.make () in
  Gc.compact ();
  let peak = ref 0 in
  let sample () =
    let h = (Gc.quick_stat ()).Gc.heap_words in
    if h > !peak then peak := h
  in
  sample ();
  let summary =
    Engine.run_stream config Mobile_server.Mtc.algorithm ~start ~rounds
      ~trace:(fun r -> if r.Engine.round land 0x3ff = 0 then sample ())
      (fun _ -> next ())
  in
  Alcotest.(check int) "rounds played" rounds summary.Engine.s_rounds;
  sample ();
  !peak

let stream_memory_bounded () =
  let small = peak_heap_words 10_000 in
  let large = peak_heap_words 1_000_000 in
  (* A leak as small as a handful of words per round would add millions
     of words at T = 10^6; steady-state churn does not. *)
  let slack = 2_000_000 in
  if large > small + slack then
    Alcotest.failf "heap grew with the horizon: %d words @10^4, %d @10^6"
      small large

(* --- Driver.run: journal on ≡ journal off ---------------------------- *)

(* Replies depend only on the frames, so one driver on a journaled and
   on an unjournaled daemon must produce byte-identical reply streams,
   both passing the serve ≡ engine wall. *)
let driver_journal_on_matches_off () =
  let config = Config.make ~d_factor:1.5 ~delta:0.1 () in
  let spec =
    Workloads.Open_world.spec ~arrival_rate:3.0 ~mean_lifetime:4.0 ~initial:8
      ~dim:2 ~seed:91 ~ticks:10 ()
  in
  let serve ~journal =
    let daemon = Serve.Daemon.create ~shards:4 ~jobs:1 ~journal ~config () in
    Fun.protect
      ~finally:(fun () -> Serve.Daemon.shutdown daemon)
      (fun () -> Serve.Driver.run daemon spec)
  in
  let on = serve ~journal:true in
  let off = serve ~journal:false in
  Alcotest.(check bool) "journaled ok" true (Serve.Driver.ok on);
  Alcotest.(check bool) "unjournaled ok" true (Serve.Driver.ok off);
  Alcotest.(check int) "sessions" on.Serve.Driver.sessions
    off.Serve.Driver.sessions;
  Alcotest.(check int) "steps" on.Serve.Driver.steps off.Serve.Driver.steps;
  Alcotest.(check string) "reply digest (journal on = off)"
    on.Serve.Driver.reply_digest off.Serve.Driver.reply_digest

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "stream"
    [
      ( "fbuf",
        [
          Alcotest.test_case "create zero-fills" `Quick fbuf_create_zeroed;
          qc qcheck_fbuf_roundtrip;
          qc qcheck_fbuf_blit;
        ] );
      ("engine", [ qc qcheck_engine_stream ]);
      ("cursors", [ qc qcheck_cursor_matches_generate ]);
      ( "open-world",
        [
          Alcotest.test_case "iter_stream = iter" `Quick
            open_world_stream_matches_iter;
        ] );
      ( "memory",
        [ Alcotest.test_case "O(1) in the horizon" `Slow stream_memory_bounded ]
      );
      ( "driver",
        [
          Alcotest.test_case "journal on = off" `Quick
            driver_journal_on_matches_off;
        ] );
    ]
