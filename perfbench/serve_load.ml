(* The serve-* workloads: a single-domain client loop over
   [Open_world.iter_stream] that talks to a [Serve.Daemon] only in
   [Serve.Frame] bytes.  The loop is closed at tick granularity: a
   tick's frames are submitted, then flushed, then every reply is
   awaited and decoded before the next tick.  [Serve.Driver] is not
   used because its close-time oracle would run inside the measured
   phase; here the oracle runs after it. *)

open Perfbench
module Daemon = Serve.Daemon
module Frame = Serve.Frame
module Open_world = Workloads.Open_world
module Engine = Mobile_server.Engine

type shape = {
  live : int;
      (** Sessions open at tick 0; Poisson arrivals at [live / lifetime]
          per tick hold about that occupancy from the first tick on
          (the record states the mean live count). *)
  lifetime : float;  (** Mean session lifetime, ticks. *)
  journal : bool;
  warmup_ticks : int;  (** Set-up ticks before the measured phase. *)
  kill_every : int;  (** Measured ticks between shard kills; 0 = none. *)
}

(* Prng.Dist.poisson is Knuth's method, exact only while exp (-rate)
   is a normal float: above about 708 arrivals per tick it saturates
   near 745, and an occupancy that needs more arrivals decays.  Both
   shapes stay at 625 arrivals per tick, so they hold [live] sessions
   steady for the whole run. *)

(* [msp serve]'s shape at 20k live sessions, without journals: the
   frame codec, the shard queues and their backpressure, MtC session
   steps and the workload cursors, and nothing else.  [msp serve]'s
   default lifetime of 16 ticks would need 1250 arrivals per tick, so
   the lifetime is 32.  Set-up: tick 0 opens every session, tick 1 is
   the first steady one. *)
let stream =
  { live = 20_000; lifetime = 32.0; journal = false; warmup_ticks = 2;
    kill_every = 0 }

(* The same loop with journals on and one shard killed round-robin
   after every measured tick, so every tick pays one shard's replay;
   the mean lifetime is eight kill intervals.  The set-up runs three
   mean lifetimes first: the journal volume of a steady population
   grows as 1 - exp (-t / lifetime), so every recovery in the measured
   phase replays at least 95% of the stationary volume and the
   recoveries stay alike. *)
let crash =
  { live = 5_000; lifetime = 8.0; journal = true; warmup_ticks = 24;
    kill_every = 1 }

let shards = 8

(* The daemon's default capacity, passed explicitly because the flush
   mirror must know it. *)
let queue_capacity = 1024

let dim = 2

(* Never reached: the measured phase ends after its ticks, not at the
   horizon, so no lifetime is cut short by it. *)
let horizon = 1_000_000_000

let config = Mobile_server.Config.make ~d_factor:2.0 ~move_limit:1.0 ~delta:0.5 ()

(* A cheap chained hash of the IEEE bits of every served step reply
   (position, move and service cost, clamp flag); the oracle chains the
   engine replay's step records the same way. *)
let hash_seed = 0x51ed27

let mix h x =
  let b = Int64.bits_of_float x in
  let h = (h lxor Int64.to_int b) * 0x100000001b3 in
  (h lxor Int64.to_int (Int64.shift_right_logical b 32)) * 0x100000001b3

let hash_step h ~position ~move ~service ~clamped =
  let h = mix (mix (Array.fold_left mix h position) move) service in
  if clamped then mix h 1.0 else h

type sess = {
  plan : Open_world.plan;
  shard : int;
  mutable served : int;
  mutable hash : int;
  mutable mirror : Engine.Session.t option;
  mutable closed : Frame.reply option;
  mutable natural : bool;  (** Closed by the schedule, not by the run's end. *)
}

(* The tick's submitted frames, in submission order. *)
type pending = {
  mutable n : int;
  mutable tickets : Daemon.ticket array;
  mutable owners : sess array;
  mutable kinds : Bytes.t;
  mutable t_sub : float array;
}

let k_open = '\000'
let k_step = '\001'
let k_close = '\002'

let push pd ticket owner kind t =
  if pd.n = Array.length pd.tickets then begin
    let more = Stdlib.max 1024 pd.n in
    pd.tickets <- Array.append pd.tickets (Array.make more ticket);
    pd.owners <- Array.append pd.owners (Array.make more owner);
    pd.kinds <- Bytes.extend pd.kinds 0 more;
    pd.t_sub <- Array.append pd.t_sub (Array.make more 0.0)
  end;
  pd.tickets.(pd.n) <- ticket;
  pd.owners.(pd.n) <- owner;
  Bytes.set pd.kinds pd.n kind;
  pd.t_sub.(pd.n) <- t;
  pd.n <- pd.n + 1

type ids = {
  open_world : int;
  c_open : int;
  c_step : int;
  c_close : int;
  c_tick : int;
  create : int;
  encode : int;
  decode : int;
  submit : int;
  flush : int;
  recovery_flush : int;
  await : int;
  kill : int;
  s_create : int;
  s_step : int;
}

let intern tr =
  let n = Tracer.name tr in
  {
    open_world = n "workloads.open_world.self";
    c_open = n "client.open";
    c_step = n "client.step";
    c_close = n "client.close";
    c_tick = n "client.tick_end";
    create = n "serve.daemon.create";
    encode = n "serve.frame.encode_request";
    decode = n "serve.frame.decode_reply";
    submit = n "serve.daemon.submit";
    flush = n "serve.daemon.flush";
    recovery_flush = n "serve.daemon.recovery_flush";
    await = n "serve.daemon.await";
    kill = n "serve.daemon.kill_shard";
    s_create = n "core.session.create";
    s_step = n "core.session.step";
  }

type st = {
  daemon : Daemon.t;
  mirror : Flush_mirror.t;
  pd : pending;
  by_id : (int64, sess) Hashtbl.t;  (** Live sessions. *)
  mutable closed : sess list;
  mutable measuring : bool;
  mutable t0 : float;
  mutable t_end : float;
  mutable gc0 : Gc.stat;
  mutable gc : (string * float) list;
  mutable rss_mb : float;
  mutable steps : int;
  mutable ticks : int;
  mutable tick_worst : float;  (** The current tick's slowest step. *)
  mutable recovering : bool;
  mutable kills : int;
  mutable replayed : int;
  mutable live_sum : int;  (** Live sessions summed over measured ticks. *)
  mutable peak_live : int;
  mutable flushes0 : int;
  mutable mirror0 : float;
}

exception Setup_done
exception Stop

let run shape (ctx : Run.ctx) =
  let tr = ctx.Run.tracer in
  let ids = intern tr in
  let traced = ctx.Run.traced in
  let checks = Run.checks () in
  let lat = Pct.create (ctx.Run.units * 2 * shape.live) in
  (* A tick's steps share its flushes, so their latencies are not
     independent: the tail is read from one sample per tick, its
     slowest step. *)
  let tick_lat = Pct.create ctx.Run.units in
  let spec =
    Open_world.spec
      ~arrival_rate:(float_of_int shape.live /. shape.lifetime)
      ~mean_lifetime:shape.lifetime ~initial:shape.live ~dim
      ~seed:ctx.Run.seed ~ticks:horizon ()
  in
  let mirror_s () =
    Tracer.self_s tr "core.session.create" +. Tracer.self_s tr "core.session.step"
  in
  (* A submit that finds its shard's queue full flushes every shard
     first: its time is booked as flush time, and as recovery time in
     a tick that follows a kill. *)
  let flush_id st = if st.recovering then ids.recovery_flush else ids.flush in
  let submit st sess kind frame =
    let op = Int64.to_int sess.plan.Open_world.id in
    let flushes = Flush_mirror.submit st.mirror sess.shard in
    Tracer.enter tr (if flushes then flush_id st else ids.submit) ~op;
    let t = Run.now () in
    let ticket = Daemon.submit st.daemon frame in
    Tracer.leave tr;
    push st.pd ticket sess kind t
  in
  let encode ~op req =
    Tracer.enter tr ids.encode ~op;
    let frame = Frame.encode_request req in
    Tracer.leave tr;
    frame
  in
  let open_ st (p : Open_world.plan) ~start =
    let op = Int64.to_int p.Open_world.id in
    Tracer.enter tr ids.c_open ~op;
    let sess =
      { plan = p; shard = Daemon.shard_of_session st.daemon p.Open_world.id;
        served = 0; hash = hash_seed; mirror = None; closed = None;
        natural = false }
    in
    Hashtbl.replace st.by_id p.Open_world.id sess;
    (* In-process mirrors of the served sessions time Session.step
       itself, so flush time minus step time is the daemon's own. *)
    if traced then begin
      Tracer.enter tr ids.s_create ~op;
      sess.mirror <-
        Some
          (Engine.Session.create
             ~rng:(Daemon.session_rng ~seed:p.Open_world.seed)
             config Mobile_server.Mtc.algorithm ~start);
      Tracer.leave tr
    end;
    submit st sess k_open
      (encode ~op
         (Frame.Open { session = p.Open_world.id; seed = p.Open_world.seed; start }));
    Tracer.leave tr
  in
  let step st (p : Open_world.plan) ~round:_ requests =
    let op = Int64.to_int p.Open_world.id in
    Tracer.enter tr ids.c_step ~op;
    let sess = Hashtbl.find st.by_id p.Open_world.id in
    (match sess.mirror with
     | Some m ->
       Tracer.enter tr ids.s_step ~op;
       ignore (Engine.Session.step m requests);
       Tracer.leave tr
     | None -> ());
    submit st sess k_step
      (encode ~op (Frame.Step { session = p.Open_world.id; requests }));
    Tracer.leave tr
  in
  let close st (p : Open_world.plan) =
    let op = Int64.to_int p.Open_world.id in
    Tracer.enter tr ids.c_close ~op;
    let sess = Hashtbl.find st.by_id p.Open_world.id in
    Hashtbl.remove st.by_id p.Open_world.id;
    sess.natural <- true;
    submit st sess k_close
      (encode ~op (Frame.Close { session = p.Open_world.id }));
    Tracer.leave tr
  in
  (* Flush, then redeem and decode every reply of the tick in order. *)
  let drain st =
    Flush_mirror.flush st.mirror;
    Tracer.enter tr (flush_id st) ~op:(-1);
    Daemon.flush st.daemon;
    Tracer.leave tr;
    let pd = st.pd in
    for i = 0 to pd.n - 1 do
      let sess = pd.owners.(i) in
      let op = Int64.to_int sess.plan.Open_world.id in
      Tracer.enter tr ids.await ~op;
      let bytes = Daemon.await st.daemon pd.tickets.(i) in
      Tracer.leave tr;
      Tracer.enter tr ids.decode ~op;
      let reply = Frame.decode_reply bytes in
      Tracer.leave tr;
      let t_done = Run.now () in
      let kind = Bytes.get pd.kinds i in
      match reply with
      | Ok (Frame.Stepped { position; move; service; clamped; _ }) when kind = k_step ->
        sess.served <- sess.served + 1;
        sess.hash <- hash_step sess.hash ~position ~move ~service ~clamped;
        if st.measuring then begin
          let l = t_done -. pd.t_sub.(i) in
          Pct.add lat l;
          if l > st.tick_worst then st.tick_worst <- l;
          st.steps <- st.steps + 1
        end
      | Ok (Frame.Opened _) when kind = k_open -> ()
      | Ok (Frame.Closed _ as c) when kind = k_close ->
        sess.closed <- Some c;
        st.closed <- sess :: st.closed
      | Ok (Frame.Error { session; code; message }) ->
        Run.fail checks "error reply for session %Ld: %s: %s" session
          (Frame.error_code_to_string code) message
      | Ok _ -> Run.fail checks "unexpected reply for session %d" op
      | Error msg -> Run.fail checks "undecodable reply for session %d: %s" op msg
    done;
    pd.n <- 0;
    st.recovering <- false
  in
  (* The killed shard rebuilds its sessions from their journals on
     their next frames; the rounds it replays are the rounds its live
     sessions have been served. *)
  let kill st =
    let shard = st.kills mod shards in
    if traced then
      Hashtbl.iter
        (fun _ s -> if s.shard = shard then st.replayed <- st.replayed + s.served)
        st.by_id;
    Tracer.enter tr ids.kill ~op:shard;
    Daemon.kill_shard st.daemon shard;
    Tracer.leave tr;
    st.kills <- st.kills + 1;
    st.recovering <- true
  in
  let tick_end st ~setup_done ~tick =
    Tracer.enter tr ids.c_tick ~op:tick;
    drain st;
    let live = Daemon.live_sessions st.daemon in
    if live > st.peak_live then st.peak_live <- live;
    Tracer.leave tr;
    if not st.measuring then begin
      if tick = shape.warmup_ticks - 1 then begin
        setup_done ();
        let gc0, t0 = Run.begin_measure ctx in
        st.gc0 <- gc0;
        st.t0 <- t0;
        st.flushes0 <- Flush_mirror.backpressure_flushes st.mirror;
        st.mirror0 <- mirror_s ();
        st.measuring <- true
      end
    end
    else begin
      st.ticks <- st.ticks + 1;
      st.live_sum <- st.live_sum + live;
      Pct.add tick_lat st.tick_worst;
      st.tick_worst <- 0.0;
      let t = Run.now () in
      if st.ticks >= ctx.Run.units || Pct.full lat
         || t -. st.t0 >= ctx.Run.deadline_s
      then begin
        st.t_end <- t;
        st.gc <- Run.gc_delta st.gc0;
        st.rss_mb <- Host.peak_rss_mb ();
        raise Stop
      end;
      if shape.kill_every > 0 && st.ticks mod shape.kill_every = 0 then kill st
    end
  in
  let setup_s = Array.make ctx.Run.setups 0.0 in
  let rec attempt r =
    Gc.full_major ();
    if traced then Tracer.start tr;
    let t_setup = Run.now () in
    Tracer.enter tr ids.create ~op:r;
    let daemon =
      Daemon.create ~shards ~jobs:1 ~queue_capacity ~journal:shape.journal
        ~config ()
    in
    Tracer.leave tr;
    let st =
      { daemon; mirror = Flush_mirror.create ~shards ~capacity:queue_capacity;
        pd = { n = 0; tickets = [||]; owners = [||]; kinds = Bytes.empty;
               t_sub = [||] };
        by_id = Hashtbl.create (2 * shape.live); closed = [];
        measuring = false; t0 = 0.0; t_end = 0.0; gc0 = Gc.quick_stat ();
        gc = []; rss_mb = nan; steps = 0; ticks = 0; tick_worst = 0.0;
        recovering = false; kills = 0; replayed = 0; live_sum = 0;
        peak_live = 0; flushes0 = 0; mirror0 = 0.0 }
    in
    let setup_done () =
      setup_s.(r) <- Run.now () -. t_setup;
      if r < ctx.Run.setups - 1 then raise Setup_done
    in
    Tracer.enter tr ids.open_world ~op:(-1);
    match
      Open_world.iter_stream spec ~open_:(open_ st) ~step:(step st)
        ~close:(close st) ~tick_end:(tick_end st ~setup_done)
    with
    | () -> failwith "serve schedule horizon reached"
    | exception Setup_done ->
      Tracer.leave tr;
      Daemon.shutdown daemon;
      attempt (r + 1)
    | exception Stop ->
      Tracer.leave tr;
      Tracer.stop tr;
      st
  in
  let st = attempt 0 in
  let mirror_s = mirror_s () -. st.mirror0 in
  (* Close every session still live, outside the measured phase, so
     the oracle covers every session the final set-up opened. *)
  let still_live =
    List.sort
      (fun a b -> Int64.compare a.plan.Open_world.id b.plan.Open_world.id)
      (Hashtbl.fold (fun _ s acc -> s :: acc) st.by_id [])
  in
  List.iter
    (fun sess ->
      submit st sess k_close
        (Frame.encode_request (Frame.Close { session = sess.plan.Open_world.id })))
    still_live;
  drain st;
  Daemon.shutdown st.daemon;
  let t_verify = Run.now () in
  let verified = ref 0 in
  List.iter
    (fun sess ->
      let p = sess.plan in
      let id = p.Open_world.id in
      match sess.closed with
      | Some (Frame.Closed { rounds; clamped_rounds; position; move; service; _ }) ->
        incr verified;
        let start, next = Open_world.plan_cursor spec p in
        let h = ref hash_seed in
        let s =
          Engine.run_stream
            ~rng:(Daemon.session_rng ~seed:p.Open_world.seed)
            ~trace:(fun r ->
              h :=
                hash_step !h ~position:r.Engine.position
                  ~move:r.Engine.cost.Mobile_server.Cost.move
                  ~service:r.Engine.cost.Mobile_server.Cost.service
                  ~clamped:r.Engine.clamped)
            config Mobile_server.Mtc.algorithm ~start ~rounds:sess.served
            (fun _ -> next ())
        in
        let cost = s.Engine.s_cost in
        if sess.natural && sess.served <> p.Open_world.rounds then
          Run.fail checks "session %Ld: served %d of %d rounds" id sess.served
            p.Open_world.rounds
        else if
          rounds <> sess.served
          || clamped_rounds <> s.Engine.s_clamped
          || !h <> sess.hash
          || Array.length position <> Array.length s.Engine.s_final
          || not (Array.for_all2 Run.same_bits position s.Engine.s_final)
          || not (Run.same_bits move cost.Mobile_server.Cost.move)
          || not (Run.same_bits service cost.Mobile_server.Cost.service)
        then Run.fail checks "session %Ld: served trajectory differs from the engine replay" id
      | _ -> Run.fail checks "session %Ld never closed" id)
    st.closed;
  let verify_s = Run.now () -. t_verify in
  let flushes = Flush_mirror.backpressure_flushes st.mirror - st.flushes0 in
  let mean_live = float_of_int st.live_sum /. float_of_int (Stdlib.max 1 st.ticks) in
  {
    Run.ops = st.steps;
    units = st.ticks;
    wall_s = st.t_end -. st.t0;
    lat;
    tail = tick_lat;
    tail_unit = "per-tick slowest step";
    setup_s;
    gc = st.gc;
    rss_mb = st.rss_mb;
    attempted = st.steps;
    failed = Run.failed checks;
    problems = Run.problems checks;
    layers =
      [ ("serve.daemon.backpressure_flushes", float_of_int flushes);
        ("serve.daemon.replayed_rounds", float_of_int st.replayed);
        ("serve.daemon.peak_live", float_of_int st.peak_live);
        ("serve.verify_s", verify_s) ];
    mirror_s;
    notes =
      [ ("measured ticks", string_of_int st.ticks);
        ("backpressure flushes", string_of_int flushes);
        ("shard kills", string_of_int st.kills);
        ("mean live sessions", Printf.sprintf "%.0f" mean_live);
        ("peak live sessions", string_of_int st.peak_live);
        ("sessions verified", string_of_int !verified);
        ("oracle seconds", Printf.sprintf "%.3f" verify_s) ];
  }
