module Engine = Mobile_server.Engine
module Cost = Mobile_server.Cost
module Open_world = Workloads.Open_world

type report = {
  sessions : int;
  steps : int;
  errors : int;
  peak_live : int;
  latencies : float array;
  service_latencies : float array;
  mismatches : string list;
  reply_digest : string;
}

let max_reported = 8

let ok r = r.mismatches = [] && r.errors = 0

let same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b

let same_vec a b =
  Array.length a = Array.length b
  && (let ok = ref true in
      Array.iteri (fun i x -> if not (same_bits x b.(i)) then ok := false) a;
      !ok)

(* Canonical bytes of one served round for the per-session digests:
   the position's raw big-endian IEEE bits per coordinate ({!Frame}'s
   float convention), the round's move and service cost bits, then its
   clamp flag — so equal digests mean every round's position, costs and
   clamp flag matched bitwise. *)
let round_bytes position ~move ~service ~clamped =
  let d = Array.length position in
  let b = Bytes.create ((8 * d) + 17) in
  Array.iteri
    (fun i x -> Bytes.set_int64_be b (i * 8) (Int64.bits_of_float x))
    position;
  Bytes.set_int64_be b (8 * d) (Int64.bits_of_float move);
  Bytes.set_int64_be b ((8 * d) + 8) (Int64.bits_of_float service);
  Bytes.set b ((8 * d) + 16) (if clamped then '\001' else '\000');
  Bytes.unsafe_to_string b

let round_digest_seed = Digest.string "serve-round-stream-v2"

type kind = K_open | K_step | K_close

type pending = {
  ticket : Daemon.ticket;
  kind : kind;
  p_id : int64;
  t_submit : float;
}

(* The driver's bookkeeping: counters, the two latency series (per-step
   sojourn, per-tick service), the capped mismatch log and the chained
   reply digest. *)
type acc = {
  mutable a_sessions : int;
  mutable a_steps : int;
  mutable a_errors : int;
  mutable a_peak_live : int;
  mutable a_sojourn_rev : float list;
  mutable a_service_rev : float list;
  mutable a_mismatches_rev : string list;
  mutable a_mismatch_count : int;
  (* Chained digest over every reply frame in submission order: cheap,
     incremental, and equal iff the reply byte streams are identical. *)
  mutable a_digest : string;
}

let acc_create () =
  {
    a_sessions = 0;
    a_steps = 0;
    a_errors = 0;
    a_peak_live = 0;
    a_sojourn_rev = [];
    a_service_rev = [];
    a_mismatches_rev = [];
    a_mismatch_count = 0;
    a_digest = Digest.string "serve-reply-stream-v1";
  }

let flag acc fmt =
  Printf.ksprintf
    (fun s ->
      acc.a_mismatch_count <- acc.a_mismatch_count + 1;
      if acc.a_mismatch_count <= max_reported then
        acc.a_mismatches_rev <- s :: acc.a_mismatches_rev)
    fmt

let acc_report acc =
  {
    sessions = acc.a_sessions;
    steps = acc.a_steps;
    errors = acc.a_errors;
    peak_live = acc.a_peak_live;
    latencies = Array.of_list (List.rev acc.a_sojourn_rev);
    service_latencies = Array.of_list (List.rev acc.a_service_rev);
    mismatches = List.rev acc.a_mismatches_rev;
    reply_digest = Digest.to_hex acc.a_digest;
  }

(* Per tick: record the live high-water mark, flush, time the flush.
   The per-tick service latency is flush seconds divided by the step
   frames served in the batch — what the daemon actually spends per
   step — as opposed to the per-step sojourn (submit→reply), which
   under tick batching is dominated by time spent queued behind the
   rest of the tick. *)
let tick_flush daemon acc ~timing ~clock ~tick_steps =
  let live = Daemon.live_sessions daemon in
  if live > acc.a_peak_live then acc.a_peak_live <- live;
  let t0 = clock () in
  Daemon.flush daemon;
  if timing && tick_steps > 0 then begin
    let dt = clock () -. t0 in
    acc.a_service_rev <- (dt /. float_of_int tick_steps) :: acc.a_service_rev
  end

(* Per-session state: the plan, the served round count and a chained
   digest of the served rounds ({!round_bytes} of every [Stepped]
   reply) — O(1) per session.  At close the session is replayed through
   {!Engine.run_stream} on a fresh {!Open_world.plan_cursor}, chaining
   each replayed round's {!Engine.step_record} into the same digest
   construction; equal digests mean every round's position, move and
   service costs and clamp flag matched bitwise. *)
type session_state = {
  ss_plan : Open_world.plan;
  mutable ss_rounds : int;
  mutable ss_digest : string;
}

let run ?now daemon (spec : Open_world.spec) =
  let states : (int64, session_state) Hashtbl.t = Hashtbl.create 1024 in
  let acc = acc_create () in
  let clock = match now with Some f -> f | None -> fun () -> 0. in
  let timing = now <> None in
  let verify (st : session_state) ~rounds ~clamped_rounds ~position ~move
      ~service =
    let p = st.ss_plan in
    let id = p.Open_world.id in
    let start, next = Open_world.plan_cursor spec p in
    let dig = ref round_digest_seed in
    let summary =
      Engine.run_stream
        ~rng:(Daemon.session_rng ~seed:p.Open_world.seed)
        ~trace:(fun r ->
          let c = r.Engine.cost in
          dig :=
            Digest.string
              (!dig
              ^ round_bytes r.Engine.position ~move:c.Cost.move
                  ~service:c.Cost.service ~clamped:r.Engine.clamped))
        (Daemon.config daemon) Mobile_server.Mtc.algorithm ~start
        ~rounds:p.Open_world.rounds
        (fun _ -> next ())
    in
    if st.ss_rounds <> summary.Engine.s_rounds then
      flag acc "session %Ld: served %d rounds, engine replay has %d" id
        st.ss_rounds summary.Engine.s_rounds
    else if st.ss_digest <> !dig then
      flag acc
        "session %Ld: served trajectory diverges from engine (a round's \
         position, move, service or clamp flag)"
        id;
    if rounds <> summary.Engine.s_rounds then
      flag acc "session %Ld: daemon says %d rounds, engine %d" id rounds
        summary.Engine.s_rounds;
    if clamped_rounds <> summary.Engine.s_clamped then
      flag acc "session %Ld: daemon clamped %d rounds, engine %d" id
        clamped_rounds summary.Engine.s_clamped;
    if not (same_vec position summary.Engine.s_final) then
      flag acc "session %Ld: final position diverges from engine" id;
    if not (same_bits move summary.Engine.s_cost.Cost.move) then
      flag acc "session %Ld: move cost %h diverges from engine %h" id move
        summary.Engine.s_cost.Cost.move;
    if not (same_bits service summary.Engine.s_cost.Cost.service) then
      flag acc "session %Ld: service cost %h diverges from engine %h" id
        service summary.Engine.s_cost.Cost.service
  in
  let handle (p : pending) =
    let reply_bytes = Daemon.await daemon p.ticket in
    acc.a_digest <- Digest.string (acc.a_digest ^ reply_bytes);
    if timing && p.kind = K_step then
      acc.a_sojourn_rev <- (clock () -. p.t_submit) :: acc.a_sojourn_rev;
    match Frame.decode_reply reply_bytes with
    | Error msg -> flag acc "undecodable reply for session %Ld: %s" p.p_id msg
    | Ok (Frame.Error { session; code; message }) ->
      acc.a_errors <- acc.a_errors + 1;
      flag acc "error reply for session %Ld: %s: %s" session
        (Frame.error_code_to_string code)
        message
    | Ok (Frame.Opened _) -> ()
    | Ok (Frame.Stepped { session; position; move; service; clamped }) ->
      begin
        acc.a_steps <- acc.a_steps + 1;
        match Hashtbl.find_opt states session with
        | None -> flag acc "step reply for unknown session %Ld" session
        | Some st ->
          st.ss_rounds <- st.ss_rounds + 1;
          st.ss_digest <-
            Digest.string
              (st.ss_digest ^ round_bytes position ~move ~service ~clamped)
      end
    | Ok (Frame.Snapshot _) -> ()
    | Ok (Frame.Closed { session; rounds; clamped_rounds; position; move;
                         service }) -> begin
        match Hashtbl.find_opt states session with
        | None -> flag acc "close reply for unknown session %Ld" session
        | Some st ->
          verify st ~rounds ~clamped_rounds ~position ~move ~service;
          Hashtbl.remove states session
      end
  in
  let tick_pending = ref [] in
  let tick_steps = ref 0 in
  let submit kind id frame =
    let ticket = Daemon.submit daemon frame in
    if kind = K_step then incr tick_steps;
    tick_pending :=
      { ticket; kind; p_id = id; t_submit = clock () } :: !tick_pending
  in
  Open_world.iter_stream spec
    ~open_:(fun p ~start ->
      acc.a_sessions <- acc.a_sessions + 1;
      Hashtbl.replace states p.Open_world.id
        {
          ss_plan = p;
          ss_rounds = 0;
          ss_digest = round_digest_seed;
        };
      submit K_open p.Open_world.id
        (Frame.encode_request
           (Frame.Open
              { session = p.Open_world.id; seed = p.Open_world.seed; start })))
    ~step:(fun p ~round:_ requests ->
      submit K_step p.Open_world.id
        (Frame.encode_request
           (Frame.Step { session = p.Open_world.id; requests })))
    ~close:(fun p ->
      submit K_close p.Open_world.id
        (Frame.encode_request (Frame.Close { session = p.Open_world.id })))
    ~tick_end:(fun ~tick:_ ->
      tick_flush daemon acc ~timing ~clock ~tick_steps:!tick_steps;
      List.iter handle (List.rev !tick_pending);
      tick_pending := [];
      tick_steps := 0);
  if Hashtbl.length states <> 0 then
    flag acc "%d session(s) never closed" (Hashtbl.length states);
  acc_report acc
