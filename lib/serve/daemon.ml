[@@@no_boxed_floats]

module Engine = Mobile_server.Engine
module Config = Mobile_server.Config
module Vec = Geometry.Vec

(* A session's durable record, enough to rebuild the live state after
   a shard crash: a state [Engine.Session.restore] accepts, plus the
   accepted rounds played since that state (the tail).  Recovery
   restores the state and replays the tail.  Only the owning shard
   ever touches it, so no locking is needed. *)
type journal = {
  j_seed : int;
  mutable j_position : Vec.t;
  mutable j_proposed : Vec.t;
  mutable j_rounds : int;
  mutable j_clamped : int;
  mutable j_cost : Mobile_server.Cost.breakdown;
  mutable j_tail_rev : Vec.t array list;  (** Newest first. *)
}

type pending = {
  raw : (Frame.request, string) result;
  mutable reply : string option;
}

type shard = {
  queue : pending Queue.t;
  live : (int64, Engine.Session.t) Hashtbl.t;
  journals : (int64, journal) Hashtbl.t;
}

type t = {
  config : Config.t;
  nshards : int;
  shards : shard array;
  pool : Exec.Pool.t option;
  queue_capacity : int;
  journaled : bool;
  mutable stopped : bool;
}

type ticket = pending

let session_rng ~seed = Prng.Stream.named ~name:"serve-session" ~seed

(* SplitMix64 finalizer: a well-mixed, stable hash of the session id,
   so ids produced by any counter spread evenly over the shards. *)
let shard_of ~nshards id =
  let z = Int64.mul (Int64.logxor id (Int64.shift_right_logical id 33))
      0xff51afd7ed558ccdL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33))
      0xc4ceb9fe1a85ec53L in
  let z = Int64.logxor z (Int64.shift_right_logical z 33) in
  Int64.to_int (Int64.unsigned_rem z (Int64.of_int nshards))

let create ?(shards = 8) ?jobs ?(queue_capacity = 1024) ?(journal = true)
    ~config () =
  if shards < 1 then invalid_arg "Serve.Daemon.create: shards < 1";
  if queue_capacity < 1 then
    invalid_arg "Serve.Daemon.create: queue_capacity < 1";
  let jobs =
    match jobs with
    | None -> Stdlib.min shards (Exec.jobs ())
    | Some j ->
      if j < 1 then invalid_arg "Serve.Daemon.create: jobs < 1";
      Stdlib.min shards j
  in
  {
    config;
    nshards = shards;
    shards =
      Array.init shards (fun _ ->
          {
            queue = Queue.create ();
            live = Hashtbl.create 64;
            journals = Hashtbl.create 64;
          });
    pool = (if jobs = 1 then None else Some (Exec.Pool.create ~jobs));
    queue_capacity;
    journaled = journal;
    stopped = false;
  }

let config t = t.config
let shard_count t = t.nshards
let shard_of_session t id = shard_of ~nshards:t.nshards id

(* --- per-shard request processing ------------------------------------ *)

let make_session t ~seed ~start =
  Engine.Session.create ~rng:(session_rng ~seed) t.config
    Mobile_server.Mtc.algorithm ~start

(* Rebuild a journaled session: restore its journaled state, then
   replay the tail.  The session PRNG restarts from the seed; a tail
   replays from the opening state and so consumes exactly the same
   draws, and the rebuilt state is bit-identical to the pre-crash one. *)
let recover t shard id (j : journal) =
  let session =
    Engine.Session.restore ~rng:(session_rng ~seed:j.j_seed) t.config
      Mobile_server.Mtc.algorithm ~position:j.j_position
      ~proposed:j.j_proposed ~rounds:j.j_rounds ~clamped:j.j_clamped
      ~cost:j.j_cost
  in
  List.iter
    (fun round -> ignore (Engine.Session.step session round))
    (List.rev j.j_tail_rev);
  Hashtbl.replace shard.live id session;
  session

(* The journal takes an accepted round in place.  A cold MtC session is
   an [Algorithm.of_policy] stepper that draws nothing from its PRNG,
   so its state after the round is all [Engine.Session.restore] needs
   and the tail stays empty.  A warm-started stepper also keeps the
   previous Weiszfeld center, which no record exposes: its journal
   keeps the opening state and the round goes on the tail.  The state
   may share the record's vectors with the live session:
   [Engine.Session.advance] and the [of_policy] stepper replace their
   position vectors each round and never write into one. *)
let journal_step t (j : journal) live (record : Engine.step_record) requests =
  if t.config.Config.warm_start then j.j_tail_rev <- requests :: j.j_tail_rev
  else begin
    j.j_position <- record.Engine.position;
    j.j_proposed <- record.Engine.proposed;
    j.j_rounds <- Engine.Session.rounds live;
    j.j_clamped <- Engine.Session.clamped_count live;
    j.j_cost <- Engine.Session.cost live
  end

let find_session t shard id =
  match Hashtbl.find_opt shard.live id with
  | Some session -> Some session
  | None ->
    (match Hashtbl.find_opt shard.journals id with
     | Some j -> Some (recover t shard id j)
     | None -> None)

let snapshot_of session ~session_id mk =
  let cost = Engine.Session.cost session in
  mk ~session:session_id
    ~rounds:(Engine.Session.rounds session)
    ~clamped_rounds:(Engine.Session.clamped_count session)
    ~position:(Engine.Session.position session)
    ~move:cost.Mobile_server.Cost.move
    ~service:cost.Mobile_server.Cost.service

(* [drain] encodes each reply as soon as it is built, so a reply may
   share the session's position vector: nothing steps the session in
   between. *)
let process t shard (req : (Frame.request, string) result) : Frame.reply =
  match req with
  | Error msg ->
    Frame.Error { session = 0L; code = Frame.Bad_frame; message = msg }
  | Ok (Frame.Open { session; seed; start }) ->
    if Hashtbl.mem shard.journals session || Hashtbl.mem shard.live session
    then
      Frame.Error
        {
          session;
          code = Frame.Duplicate_session;
          message = "session id already open";
        }
    else begin
      let start = Array.copy start in
      if t.journaled then
        Hashtbl.replace shard.journals session
          {
            j_seed = seed;
            j_position = start;
            j_proposed = start;
            j_rounds = 0;
            j_clamped = 0;
            j_cost = Mobile_server.Cost.zero;
            j_tail_rev = [];
          };
      Hashtbl.replace shard.live session (make_session t ~seed ~start);
      Frame.Opened { session }
    end
  | Ok (Frame.Step { session; requests }) ->
    (match find_session t shard session with
     | None ->
       Frame.Error
         {
           session;
           code = Frame.Unknown_session;
           message = "no such session";
         }
     | Some live ->
       (* Session.step validates the whole round before mutating, so a
          rejected round leaves the session live and untouched. *)
       (match Engine.Session.step live requests with
        | record ->
          (match Hashtbl.find_opt shard.journals session with
           | Some j -> journal_step t j live record requests
           | None -> () (* journaling off *));
          Frame.Stepped
            {
              session;
              position = record.Engine.position;
              move = record.Engine.cost.Mobile_server.Cost.move;
              service = record.Engine.cost.Mobile_server.Cost.service;
              clamped = record.Engine.clamped;
            }
        | exception Invalid_argument msg ->
          Frame.Error { session; code = Frame.Bad_request; message = msg }))
  | Ok (Frame.Checkpoint { session }) ->
    (match find_session t shard session with
     | None ->
       Frame.Error
         {
           session;
           code = Frame.Unknown_session;
           message = "no such session";
         }
     | Some live ->
       snapshot_of live ~session_id:session
         (fun ~session ~rounds ~clamped_rounds ~position ~move ~service ->
           Frame.Snapshot
             { session; rounds; clamped_rounds; position; move; service }))
  | Ok (Frame.Close { session }) ->
    (match find_session t shard session with
     | None ->
       Frame.Error
         {
           session;
           code = Frame.Unknown_session;
           message = "no such session";
         }
     | Some live ->
       let reply =
         snapshot_of live ~session_id:session
           (fun ~session ~rounds ~clamped_rounds ~position ~move ~service ->
             Frame.Closed
               { session; rounds; clamped_rounds; position; move; service })
       in
       Hashtbl.remove shard.live session;
       Hashtbl.remove shard.journals session;
       reply)

let drain t shard =
  while not (Queue.is_empty shard.queue) do
    let pending = Queue.pop shard.queue in
    pending.reply <- Some (Frame.encode_reply (process t shard pending.raw))
  done

let flush t =
  let busy = Array.exists (fun s -> not (Queue.is_empty s.queue)) t.shards in
  if busy then
    match t.pool with
    | Some pool when not t.stopped ->
      Exec.Pool.run pool ~tasks:t.nshards (fun i -> drain t t.shards.(i))
    | _ -> Array.iter (fun shard -> drain t shard) t.shards

(* --- public API ------------------------------------------------------- *)

let submit t frame =
  let raw = Frame.decode_request frame in
  let shard_index =
    match raw with
    | Ok (Frame.Open { session; _ })
    | Ok (Frame.Step { session; _ })
    | Ok (Frame.Checkpoint { session })
    | Ok (Frame.Close { session }) -> shard_of_session t session
    | Error _ -> 0
  in
  let shard = t.shards.(shard_index) in
  if Queue.length shard.queue >= t.queue_capacity then flush t;
  let pending = { raw; reply = None } in
  Queue.add pending shard.queue;
  pending

let await t ticket =
  (match ticket.reply with None -> flush t | Some _ -> ());
  match ticket.reply with
  | Some reply -> reply
  | None -> assert false (* flush drains every shard *)

let call t frame = await t (submit t frame)

let live_sessions t =
  (* With journaling on, the journal table is authoritative: a killed
     shard's sessions are still live (they rebuild on next touch) even
     though the live table was reset.  Without journals the live table
     is all there is. *)
  let count (s : shard) =
    if t.journaled then Hashtbl.length s.journals else Hashtbl.length s.live
  in
  Array.fold_left (fun acc s -> acc + count s) 0 t.shards

let kill_shard ?(lose_journal = false) t i =
  let i = ((i mod t.nshards) + t.nshards) mod t.nshards in
  let shard = t.shards.(i) in
  Hashtbl.reset shard.live;
  if lose_journal then Hashtbl.reset shard.journals

let shutdown t =
  flush t;
  t.stopped <- true;
  match t.pool with None -> () | Some pool -> Exec.Pool.shutdown pool
