module Engine = Mobile_server.Engine
module Config = Mobile_server.Config
module Instance = Mobile_server.Instance
module Cost = Mobile_server.Cost
module Vec = Geometry.Vec
module Opt_cache = Offline.Opt_cache
module Frame = Serve.Frame
module Daemon = Serve.Daemon

type outcome =
  | Pass
  | Fail of { index : int; op : Op.op option; reason : string }

type result = {
  outcome : outcome;
  ops_run : int;
  checks : int;
  faults_armed : int;
  quarantined : int;
}

let cache_capacity = 512
let start () = Vec.make1 0.0

(* D = 2 makes movement strictly more expensive than service (clamping
   and the DP's move term both bind); δ = 0.5 gives the session a real
   augmentation gap over the offline optimum. *)
let config = Config.make ~d_factor:2.0 ~move_limit:1.0 ~delta:0.5 ()

(* Oracle mismatches travel on this exception; anything else escaping
   an op is a bug in the system under test and fails the run too. *)
exception Check_failed of string

let check_failed fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

(* All equality is on IEEE-754 bits: the oracle promises bit-identical
   answers, and bits-equality is total (NaN-safe) where (=.) is not. *)
let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_vec a b =
  Vec.dim a = Vec.dim b
  &&
  let ok = ref true in
  Array.iteri (fun i x -> if not (same_bits x b.(i)) then ok := false) a;
  !ok

let same_cost (a : Cost.breakdown) (b : Cost.breakdown) =
  same_bits a.move b.move && same_bits a.service b.service

(* A daemon session's bit-exact in-process twin.  [r_dead] flips when a
   journal-losing shard crash takes the session down: from then on the
   daemon must answer [Unknown_session] for it, never stale state. *)
type replica = {
  mirror : Engine.Session.t;
  mutable r_dead : bool;
}

type state = {
  run_seed : int;
  session_base : Prng.Stream.t;
  fleet_base : Prng.Stream.t;
  mutable generation : int;
  mutable session : Engine.Session.t;
  mutable prefix_rev : Vec.t array list;  (** Rounds fed, newest first. *)
  audit_alg : Mobile_server.Algorithm.t;
  mutable daemon : Daemon.t option;  (** Created on the first serve op. *)
  serve_replicas : (int64, replica) Hashtbl.t;
  mutable serve_live : int64 list;  (** Live daemon sessions, open order. *)
  mutable serve_next : int;  (** Session-id counter, never reused. *)
  mutable checks : int;
  mutable faults_armed : int;
}

let make_session ~session_base ~generation =
  Engine.Session.create
    ~rng:(Prng.Stream.replicate session_base generation)
    config Mobile_server.Mtc.algorithm ~start:(start ())

let new_session st =
  make_session ~session_base:st.session_base ~generation:st.generation

let prefix_instance st =
  Instance.make ~start:(start ()) (Array.of_list (List.rev st.prefix_rev))

(* --- the oracle ------------------------------------------------------ *)

let check_session_vs_batch st =
  st.checks <- st.checks + 1;
  let inst = prefix_instance st in
  let batch =
    Engine.run
      ~rng:(Prng.Stream.replicate st.session_base st.generation)
      config Mobile_server.Mtc.algorithm inst
  in
  let s = st.session in
  if Engine.Session.rounds s <> Instance.length inst then
    check_failed "session played %d rounds, prefix has %d"
      (Engine.Session.rounds s) (Instance.length inst);
  if not (same_cost (Engine.Session.cost s) batch.Engine.cost) then
    check_failed "session cost %.17g diverges from batch replay %.17g"
      (Cost.total (Engine.Session.cost s))
      (Cost.total batch.Engine.cost);
  let batch_pos =
    let t = Array.length batch.Engine.positions in
    if t = 0 then start () else batch.Engine.positions.(t - 1)
  in
  if not (same_vec (Engine.Session.position s) batch_pos) then
    check_failed "session position diverges from batch replay";
  if Engine.Session.clamped_count s <> batch.Engine.clamped then
    check_failed "session clamped %d rounds, batch replay clamped %d"
      (Engine.Session.clamped_count s) batch.Engine.clamped

let check_opt st =
  if st.prefix_rev <> [] then begin
    st.checks <- st.checks + 1;
    let packed = Instance.pack (prefix_instance st) in
    let cached = Opt_cache.line_dp config packed in
    let cold = Offline.Line_dp.optimum_packed config packed in
    if not (same_bits cached cold) then
      check_failed "cached optimum %.17g diverges from cold recompute %.17g"
        cached cold
  end

(* --- the audit oracle ------------------------------------------------ *)

(* The seeded audit defect: propose the round's first request outright,
   ignoring the movement budget.  The engine's clamp keeps the run
   legal, but the auditor sees the raw proposal and must flag
   [Clamped_proposal] on any far-enough request. *)
let teleport =
  {
    Mobile_server.Algorithm.name = "teleport";
    make =
      (fun ?rng:_ _config ~start ->
        let last = ref (Vec.copy start) in
        fun requests ->
          if Array.length requests > 0 then last := Vec.copy requests.(0);
          !last);
  }

let check_audit st =
  if st.prefix_rev <> [] then begin
    st.checks <- st.checks + 1;
    let report, _run =
      Analysis.Audit.run ~seed:st.run_seed config st.audit_alg
        (prefix_instance st)
    in
    if not (Analysis.Report.ok report) then
      check_failed "audit report not clean: %s"
        (Analysis.Report.summary report)
  end

(* --- the serve-daemon oracle ----------------------------------------- *)

(* Small on purpose: 3 shards at 2 workers exercises cross-shard
   parallelism, and an 8-deep queue makes [submit]'s blocking-flush
   backpressure path reachable from short op lists. *)
let serve_shards = 3
let serve_jobs = 2
let serve_queue = 8

let get_daemon st =
  match st.daemon with
  | Some d -> d
  | None ->
    let d =
      Daemon.create ~shards:serve_shards ~jobs:serve_jobs
        ~queue_capacity:serve_queue ~config ()
    in
    st.daemon <- Some d;
    d

let reply_kind = function
  | Frame.Opened _ -> "opened"
  | Frame.Stepped _ -> "stepped"
  | Frame.Snapshot _ -> "snapshot"
  | Frame.Closed _ -> "closed"
  | Frame.Error { code; message; _ } ->
    Printf.sprintf "error %s (%s)" (Frame.error_code_to_string code) message

let serve_target st t =
  match st.serve_live with
  | [] -> None
  | ids ->
    let n = List.length ids in
    Some (List.nth ids (((t mod n) + n) mod n))

let drop_serve st id =
  Hashtbl.remove st.serve_replicas id;
  st.serve_live <- List.filter (fun x -> not (Int64.equal x id)) st.serve_live

(* A session whose journal was lost must fail cleanly — a precise
   [Unknown_session], not stale state — and then it is gone for good. *)
let expect_unknown st d id ~what frame =
  st.checks <- st.checks + 1;
  match Frame.decode_reply (Daemon.call d frame) with
  | Ok (Frame.Error { code = Frame.Unknown_session; session; _ })
    when Int64.equal session id -> drop_serve st id
  | Ok reply ->
    check_failed "%s for lost session %Ld got %s, wanted unknown-session"
      what id (reply_kind reply)
  | Error msg -> check_failed "undecodable %s reply: %s" what msg

let check_snapshot st id ~rounds ~clamped_rounds ~position ~move ~service =
  let r = Hashtbl.find st.serve_replicas id in
  let m = r.mirror in
  if rounds <> Engine.Session.rounds m then
    check_failed "session %Ld: daemon says %d rounds, mirror %d" id rounds
      (Engine.Session.rounds m);
  if clamped_rounds <> Engine.Session.clamped_count m then
    check_failed "session %Ld: daemon clamped %d rounds, mirror %d" id
      clamped_rounds
      (Engine.Session.clamped_count m);
  if not (same_vec position (Engine.Session.position m)) then
    check_failed "session %Ld: served position diverges from mirror" id;
  let c = Engine.Session.cost m in
  if not (same_bits move c.Cost.move) then
    check_failed "session %Ld: served move cost diverges from mirror" id;
  if not (same_bits service c.Cost.service) then
    check_failed "session %Ld: served service cost diverges from mirror" id

let do_serve_open st =
  st.checks <- st.checks + 1;
  let d = get_daemon st in
  let i = st.serve_next in
  st.serve_next <- i + 1;
  let id = Int64.of_int i in
  let seed = Exec.derive_seed ~parent:st.run_seed i in
  let reply =
    Daemon.call d
      (Frame.encode_request (Frame.Open { session = id; seed; start = [| 0.0 |] }))
  in
  match Frame.decode_reply reply with
  | Ok (Frame.Opened { session }) when Int64.equal session id ->
    let mirror =
      Engine.Session.create
        ~rng:(Daemon.session_rng ~seed)
        config Mobile_server.Mtc.algorithm ~start:(start ())
    in
    Hashtbl.replace st.serve_replicas id { mirror; r_dead = false };
    st.serve_live <- st.serve_live @ [ id ]
  | Ok reply -> check_failed "serve-open got %s" (reply_kind reply)
  | Error msg -> check_failed "undecodable serve-open reply: %s" msg

let do_serve_step st t requests =
  match serve_target st t with
  | None -> ()
  | Some id ->
    let d = get_daemon st in
    let r = Hashtbl.find st.serve_replicas id in
    let frame = Frame.encode_request (Frame.Step { session = id; requests }) in
    if r.r_dead then expect_unknown st d id ~what:"serve-step" frame
    else begin
      st.checks <- st.checks + 1;
      match Frame.decode_reply (Daemon.call d frame) with
      | Ok (Frame.Stepped { session; position; move; service; clamped }) ->
        if not (Int64.equal session id) then
          check_failed "stepped reply names session %Ld, asked %Ld" session id;
        (match Engine.Session.step r.mirror requests with
         | record ->
           if not (same_vec position record.Engine.position) then
             check_failed "session %Ld: served step position diverges" id;
           if not (same_bits move record.Engine.cost.Cost.move) then
             check_failed "session %Ld: served step move cost diverges" id;
           if not (same_bits service record.Engine.cost.Cost.service) then
             check_failed "session %Ld: served step service cost diverges" id;
           if clamped <> record.Engine.clamped then
             check_failed "session %Ld: served clamp flag diverges" id
         | exception Invalid_argument _ ->
           check_failed "daemon accepted a round the engine rejects \
                         (session %Ld)" id)
      | Ok (Frame.Error { code = Frame.Bad_request; _ }) ->
        (match Engine.Session.step r.mirror requests with
         | _ ->
           check_failed "daemon rejected a round the engine accepts \
                         (session %Ld)" id
         | exception Invalid_argument _ -> ())
      | Ok reply -> check_failed "serve-step got %s" (reply_kind reply)
      | Error msg -> check_failed "undecodable serve-step reply: %s" msg
    end

let do_serve_checkpoint st t =
  match serve_target st t with
  | None -> ()
  | Some id ->
    let d = get_daemon st in
    let r = Hashtbl.find st.serve_replicas id in
    let frame = Frame.encode_request (Frame.Checkpoint { session = id }) in
    if r.r_dead then expect_unknown st d id ~what:"serve-checkpoint" frame
    else begin
      st.checks <- st.checks + 1;
      match Frame.decode_reply (Daemon.call d frame) with
      | Ok (Frame.Snapshot { session; rounds; clamped_rounds; position; move;
                             service }) ->
        if not (Int64.equal session id) then
          check_failed "snapshot reply names session %Ld, asked %Ld" session
            id;
        check_snapshot st id ~rounds ~clamped_rounds ~position ~move ~service
      | Ok reply -> check_failed "serve-checkpoint got %s" (reply_kind reply)
      | Error msg -> check_failed "undecodable serve-checkpoint reply: %s" msg
    end

let do_serve_close st t =
  match serve_target st t with
  | None -> ()
  | Some id ->
    let d = get_daemon st in
    let r = Hashtbl.find st.serve_replicas id in
    let frame = Frame.encode_request (Frame.Close { session = id }) in
    if r.r_dead then expect_unknown st d id ~what:"serve-close" frame
    else begin
      st.checks <- st.checks + 1;
      match Frame.decode_reply (Daemon.call d frame) with
      | Ok (Frame.Closed { session; rounds; clamped_rounds; position; move;
                           service }) ->
        if not (Int64.equal session id) then
          check_failed "closed reply names session %Ld, asked %Ld" session id;
        check_snapshot st id ~rounds ~clamped_rounds ~position ~move ~service;
        drop_serve st id;
        (* The id must be gone: a follow-up probe is a clean error. *)
        (match
           Frame.decode_reply
             (Daemon.call d
                (Frame.encode_request (Frame.Checkpoint { session = id })))
         with
         | Ok (Frame.Error { code = Frame.Unknown_session; _ }) -> ()
         | Ok reply ->
           check_failed "closed session %Ld still answers with %s" id
             (reply_kind reply)
         | Error msg ->
           check_failed "undecodable post-close reply: %s" msg)
      | Ok reply -> check_failed "serve-close got %s" (reply_kind reply)
      | Error msg -> check_failed "undecodable serve-close reply: %s" msg
    end

let do_serve_kill st shard lose =
  match st.daemon with
  | None -> ()  (* Nothing serving; a kill with no daemon is a no-op. *)
  | Some d ->
    st.faults_armed <- st.faults_armed + 1;
    let n = Daemon.shard_count d in
    let shard = ((shard mod n) + n) mod n in
    Daemon.kill_shard ~lose_journal:lose d shard;
    if lose then
      List.iter
        (fun id ->
          if Daemon.shard_of_session d id = shard then
            (Hashtbl.find st.serve_replicas id).r_dead <- true)
        st.serve_live

let do_serve_bad_frame st kind =
  st.checks <- st.checks + 1;
  st.faults_armed <- st.faults_armed + 1;
  let d = get_daemon st in
  let bytes =
    match kind with
    | Op.Truncated -> "\x00\x00"
    | Op.Bad_version ->
      let f =
        Bytes.of_string
          (Frame.encode_request (Frame.Checkpoint { session = 0L }))
      in
      Bytes.set f 4 '\x7f';
      Bytes.to_string f
    | Op.Non_finite_coord ->
      Frame.encode_request
        (Frame.Open { session = -1L; seed = 0; start = [| Float.nan |] })
  in
  match Frame.decode_reply (Daemon.call d bytes) with
  | Ok (Frame.Error { code = Frame.Bad_frame; message; _ }) ->
    if message = "" then
      check_failed "bad-frame error reply carries no diagnostic"
  | Ok reply ->
    check_failed "mangled frame (%s) got %s, wanted a bad-frame error"
      (Op.to_string (Op.Serve_bad_frame kind))
      (reply_kind reply)
  | Error msg -> check_failed "undecodable bad-frame reply: %s" msg

(* Sweep every daemon session against its mirror (and every lost one
   against clean failure); part of every checkpoint, so a divergence
   planted by a shard crash cannot outlive the next sweep. *)
let check_serve st =
  match st.daemon with
  | None -> ()
  | Some d ->
    let probe id =
      st.checks <- st.checks + 1;
      let r = Hashtbl.find st.serve_replicas id in
      let reply =
        Daemon.call d (Frame.encode_request (Frame.Checkpoint { session = id }))
      in
      match Frame.decode_reply reply with
      | Ok (Frame.Snapshot { session; rounds; clamped_rounds; position; move;
                             service }) ->
        if r.r_dead then
          check_failed "session %Ld answers after its journal was lost" id;
        if not (Int64.equal session id) then
          check_failed "sweep snapshot names session %Ld, asked %Ld" session
            id;
        check_snapshot st id ~rounds ~clamped_rounds ~position ~move ~service;
        true
      | Ok (Frame.Error { code = Frame.Unknown_session; _ }) ->
        if not r.r_dead then
          check_failed "session %Ld vanished without a journal-losing crash"
            id;
        Hashtbl.remove st.serve_replicas id;
        false
      | Ok reply ->
        check_failed "sweep of session %Ld got %s" id (reply_kind reply)
      | Error msg -> check_failed "undecodable sweep reply: %s" msg
    in
    st.serve_live <- List.filter probe st.serve_live

let checkpoint st =
  check_session_vs_batch st;
  check_opt st;
  check_audit st;
  check_serve st

(* --- op execution ---------------------------------------------------- *)

let do_step st ~inject_bug requests =
  let fed =
    (* The seeded bug: silently drop the last request of a
       multi-request round on the live path only — the prefix keeps
       the full round, so the batch-replay oracle flushes it out. *)
    if inject_bug && Array.length requests >= 2 then
      Array.sub requests 0 (Array.length requests - 1)
    else requests
  in
  ignore (Engine.Session.step st.session fed);
  st.prefix_rev <- requests :: st.prefix_rev

let do_bad_step st which =
  st.checks <- st.checks + 1;
  let bad =
    match which with
    | Op.Dim_mismatch -> [| [| 1.0; 2.0 |] |]
    | Op.Non_finite -> [| [| Float.nan |] |]
  in
  let s = st.session in
  let rounds0 = Engine.Session.rounds s in
  let pos0 = Vec.copy (Engine.Session.position s) in
  let cost0 = Engine.Session.cost s in
  let clamped0 = Engine.Session.clamped_count s in
  (match Engine.Session.step s bad with
   | _ -> check_failed "invalid round was accepted by Session.step"
   | exception Invalid_argument _ -> ());
  if Engine.Session.rounds s <> rounds0 then
    check_failed "rejected round advanced the session's round counter";
  if not (same_vec (Engine.Session.position s) pos0) then
    check_failed "rejected round moved the server";
  if not (same_cost (Engine.Session.cost s) cost0) then
    check_failed "rejected round charged cost";
  if Engine.Session.clamped_count s <> clamped0 then
    check_failed "rejected round bumped the clamp counter"

let do_fleet_check st k =
  st.checks <- st.checks + 1;
  let k = max 1 (min k 8) in
  let inst = prefix_instance st in
  let play () =
    Multi.Fleet_engine.run
      ~rng:(Prng.Stream.replicate st.fleet_base k)
      ~k config Multi.Fleet_mtc.greedy_partition inst
  in
  let r1 = play () in
  let r2 = play () in
  if not (same_cost r1.Multi.Fleet_engine.cost r2.Multi.Fleet_engine.cost)
  then
    check_failed "fleet replays with equal seeds disagree on cost";
  let f1 = r1.Multi.Fleet_engine.fleets in
  let f2 = r2.Multi.Fleet_engine.fleets in
  if Array.length f1 <> Array.length f2 then
    check_failed "fleet replays disagree on round count";
  Array.iteri
    (fun t fleet ->
      Array.iteri
        (fun i pos ->
          if not (same_vec pos f2.(t).(i)) then
            check_failed "fleet replays diverge at round %d server %d" t i)
        fleet)
    f1

let do_fleet_opt st k =
  st.checks <- st.checks + 1;
  let k = max 2 (min k 3) in
  (* Truncate the prefix to at most 6 flattened requests so the
     brute-force enumerator stays well inside its state bound at
     k = 3; the flow solver sees the exact same instance. *)
  let budget = ref 6 in
  let rounds =
    List.rev st.prefix_rev
    |> List.filter_map (fun round ->
           if !budget <= 0 then None
           else begin
             let take = min (Array.length round) !budget in
             budget := !budget - take;
             Some (Array.sub round 0 take)
           end)
    |> Array.of_list
  in
  let inst = Instance.make ~start:(start ()) rounds in
  let flow = Multi.Fleet_offline.optimum_flow ~k config inst in
  let brute = Multi.Fleet_offline.optimum_brute ~k config inst in
  if not (same_bits flow brute) then
    check_failed "flow OPT %.17g diverges from brute-force OPT %.17g" flow
      brute;
  let o1 = Multi.Fleet_wfa.run ~beam:128 ~k config inst in
  let o2 = Multi.Fleet_wfa.run ~beam:128 ~k config inst in
  if
    not
      (same_bits o1.Multi.Fleet_wfa.serve_cost o2.Multi.Fleet_wfa.serve_cost
      && same_bits o1.Multi.Fleet_wfa.opt_estimate
           o2.Multi.Fleet_wfa.opt_estimate)
  then check_failed "work-function replays with equal inputs disagree";
  if o1.Multi.Fleet_wfa.opt_estimate < flow -. 1e-9 then
    check_failed "work-function estimate %.17g undercuts the flow OPT %.17g"
      o1.Multi.Fleet_wfa.opt_estimate flow

let do_concurrent_step st k =
  st.checks <- st.checks + 1;
  let k = max 1 (min k 8) in
  let rounds = Array.of_list (List.rev st.prefix_rev) in
  let replay _ =
    let s =
      Engine.Session.create
        ~rng:(Prng.Stream.replicate st.session_base st.generation)
        config Mobile_server.Mtc.algorithm ~start:(start ())
    in
    Array.iter (fun r -> ignore (Engine.Session.step s r)) rounds;
    ( Engine.Session.rounds s,
      Vec.copy (Engine.Session.position s),
      Engine.Session.cost s,
      Engine.Session.clamped_count s )
  in
  let check_replica label (rounds_r, pos, cost, clamped) =
    let live = st.session in
    if rounds_r <> Engine.Session.rounds live then
      check_failed "%s replica played %d rounds, live session %d" label
        rounds_r (Engine.Session.rounds live);
    if not (same_vec pos (Engine.Session.position live)) then
      check_failed "%s replica position diverges from live session" label;
    if not (same_cost cost (Engine.Session.cost live)) then
      check_failed "%s replica cost diverges from live session" label;
    if clamped <> Engine.Session.clamped_count live then
      check_failed "%s replica clamp count diverges from live session" label
  in
  let pool = Exec.Pool.create ~jobs:2 in
  let pooled = Array.make k None in
  let late = Array.make k None in
  Fun.protect
    ~finally:(fun () -> Exec.Pool.shutdown pool)
    (fun () ->
      Exec.Pool.run pool ~tasks:k (fun i -> pooled.(i) <- Some (replay i));
      (* Tear the pool down, then submit again: the batch must run
         caller-side with identical results (the shutdown-vs-submit
         regression the Pool fix guarantees). *)
      Exec.Pool.shutdown pool;
      Exec.Pool.run pool ~tasks:k (fun i -> late.(i) <- Some (replay i)));
  Array.iter
    (function
      | Some r -> check_replica "pooled" r
      | None -> check_failed "pooled replica never ran")
    pooled;
  Array.iter
    (function
      | Some r -> check_replica "post-shutdown" r
      | None -> check_failed "post-shutdown replica never ran")
    late

let exec_op st ~inject_bug op =
  match op with
  | Op.Step requests -> do_step st ~inject_bug requests
  | Op.Bad_step which -> do_bad_step st which
  | Op.Reset ->
    check_session_vs_batch st;
    st.generation <- st.generation + 1;
    st.prefix_rev <- [];
    st.session <- new_session st
  | Op.Checkpoint -> checkpoint st
  | Op.Opt_query -> check_opt st
  | Op.Cache_evict ->
    Opt_cache.set_capacity 1;
    Opt_cache.set_capacity cache_capacity
  | Op.Cache_clear -> Opt_cache.clear ()
  | Op.Disk_write_fail ->
    st.faults_armed <- st.faults_armed + 1;
    Opt_cache.Faults.fail_next_write ()
  | Op.Disk_read_corrupt c ->
    st.faults_armed <- st.faults_armed + 1;
    (* Clear the in-memory layer so the next lookup actually reaches
       the disk store, arm the corruption, and immediately assert the
       degraded answer still equals a cold recompute. *)
    Opt_cache.clear ();
    Opt_cache.Faults.corrupt_next_read c;
    check_opt st
  | Op.Fleet_check k -> do_fleet_check st k
  | Op.Fleet_opt_check k -> do_fleet_opt st k
  | Op.Concurrent_step k -> do_concurrent_step st k
  | Op.Serve_open -> do_serve_open st
  | Op.Serve_step (t, requests) -> do_serve_step st t requests
  | Op.Serve_checkpoint t -> do_serve_checkpoint st t
  | Op.Serve_close t -> do_serve_close st t
  | Op.Serve_kill (shard, lose) -> do_serve_kill st shard lose
  | Op.Serve_bad_frame kind -> do_serve_bad_frame st kind

(* --- run setup / teardown ------------------------------------------- *)

(* The disk store must start empty and die with the run: a fresh
   private temp directory keeps the quarantine counter and every
   disk-path decision a pure function of the op list. *)
let make_temp_dir () =
  let path = Filename.temp_file "msp-simtest" "" in
  Sys.remove path;
  Sys.mkdir path 0o700;
  path

let remove_temp_dir path =
  match Sys.readdir path with
  | entries ->
    Array.iter
      (fun e -> try Sys.remove (Filename.concat path e) with Sys_error _ -> ())
      entries;
    (try Sys.rmdir path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

let run_ops ?(inject_bug = false) ?(inject_audit_bug = false) ~seed ops =
  let saved_dir = Opt_cache.disk_dir () in
  let tmp = make_temp_dir () in
  Fun.protect
    ~finally:(fun () ->
      Opt_cache.Faults.clear ();
      Opt_cache.set_disk_dir saved_dir;
      Opt_cache.clear ();
      remove_temp_dir tmp)
    (fun () ->
      Opt_cache.set_disk_dir (Some tmp);
      Opt_cache.set_capacity cache_capacity;
      Opt_cache.clear ();
      let quarantined0 = Opt_cache.Faults.quarantined () in
      let session_base = Prng.Stream.named ~name:"simtest-session" ~seed in
      let st =
        {
          run_seed = seed;
          session_base;
          fleet_base = Prng.Stream.named ~name:"simtest-fleet" ~seed;
          generation = 0;
          session = make_session ~session_base ~generation:0;
          prefix_rev = [];
          audit_alg =
            (if inject_audit_bug then teleport
             else Mobile_server.Mtc.algorithm);
          daemon = None;
          serve_replicas = Hashtbl.create 32;
          serve_live = [];
          serve_next = 0;
          checks = 0;
          faults_armed = 0;
        }
      in
      Fun.protect
        ~finally:(fun () ->
          match st.daemon with
          | Some d -> Daemon.shutdown d
          | None -> ())
      @@ fun () ->
      let guard f =
        match f () with
        | () -> None
        | exception Check_failed reason -> Some reason
        | exception exn ->
          Some ("unexpected exception: " ^ Printexc.to_string exn)
      in
      let rec loop i ran = function
        | [] ->
          (* Implicit final checkpoint: every run ends with a full
             oracle sweep, so a divergence planted by the last few ops
             cannot slip out as a Pass. *)
          (match guard (fun () -> checkpoint st) with
           | None -> (Pass, ran)
           | Some reason -> (Fail { index = i; op = None; reason }, ran))
        | op :: rest ->
          (match guard (fun () -> exec_op st ~inject_bug op) with
           | None -> loop (i + 1) (ran + 1) rest
           | Some reason -> (Fail { index = i; op = Some op; reason }, ran))
      in
      let outcome, ops_run = loop 0 0 ops in
      {
        outcome;
        ops_run;
        checks = st.checks;
        faults_armed = st.faults_armed;
        quarantined = Opt_cache.Faults.quarantined () - quarantined0;
      })

let gen_ops ~seed ~count () =
  let g = Prng.Stream.named ~name:"simtest-ops" ~seed in
  let rec build acc n =
    if n = 0 then List.rev acc
    else build (Op.gen g :: acc) (n - 1)
  in
  build [] (max 0 count)

let run ?inject_bug ?inject_audit_bug ~seed ~count () =
  run_ops ?inject_bug ?inject_audit_bug ~seed
    (gen_ops ~seed ~count ())

let fails ?inject_bug ?inject_audit_bug ~seed ops =
  match (run_ops ?inject_bug ?inject_audit_bug ~seed ops).outcome with
  | Pass -> false
  | Fail _ -> true

let result_to_string r =
  let verdict =
    match r.outcome with
    | Pass -> "pass"
    | Fail { index; op; reason } ->
      Printf.sprintf "fail at op %d (%s): %s" index
        (match op with
         | Some op -> Op.to_string op
         | None -> "final checkpoint")
        reason
  in
  Printf.sprintf
    "verdict: %s\nops-run: %d\nchecks: %d\nfaults-armed: %d\nquarantined: %d\n"
    verdict r.ops_run r.checks r.faults_armed r.quarantined
