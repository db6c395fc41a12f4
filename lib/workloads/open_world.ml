type plan = {
  id : int64;
  seed : int;
  family : int;
  arrival : int;
  rounds : int;
}

type spec = {
  s_dim : int;
  s_seed : int;
  s_ticks : int;
  s_arrival_rate : float;
  s_mean_lifetime : float;
  s_initial : int;
}

type t = { spec : spec; plans : plan array (* ordered by (arrival, id) *) }

let family_count = 3

let spec ?(arrival_rate = 4.0) ?(mean_lifetime = 16.0) ?(initial = 0)
    ~dim ~seed ~ticks () =
  if dim < 1 then invalid_arg "Open_world.spec: dim < 1";
  if ticks < 1 then invalid_arg "Open_world.spec: ticks < 1";
  if initial < 0 then invalid_arg "Open_world.spec: initial < 0";
  if not (Float.is_finite arrival_rate) || arrival_rate <= 0. then
    invalid_arg "Open_world.spec: arrival_rate <= 0";
  if not (Float.is_finite mean_lifetime) || mean_lifetime <= 0. then
    invalid_arg "Open_world.spec: mean_lifetime <= 0";
  {
    s_dim = dim;
    s_seed = seed;
    s_ticks = ticks;
    s_arrival_rate = arrival_rate;
    s_mean_lifetime = mean_lifetime;
    s_initial = initial;
  }

(* The one place the admission draws live.  The returned function is
   called for ticks 0, 1, … in order; per tick it admits the initial
   block (tick 0 only), draws that tick's Poisson arrival count, then
   admits each arrival, handing every plan to [k] as soon as its
   lifetime is drawn.  Ids count admissions, so they increase in
   (arrival, id) order. *)
let admissions (s : spec) =
  let sched = Prng.Stream.named ~name:"open-world-schedule" ~seed:s.s_seed in
  let next_id = ref 0 in
  let admit ~arrival k =
    let i = !next_id in
    incr next_id;
    (* Lifetimes round up (a session plays at least one round) and are
       capped so every session closes within the horizon. *)
    let drawn =
      Prng.Dist.exponential sched ~rate:(1.0 /. s.s_mean_lifetime)
    in
    let rounds =
      Stdlib.max 1
        (Stdlib.min (s.s_ticks - arrival) (int_of_float (Float.ceil drawn)))
    in
    k
      {
        id = Int64.of_int i;
        seed = Exec.derive_seed ~parent:s.s_seed i;
        family = i mod family_count;
        arrival;
        rounds;
      }
  in
  fun ~tick k ->
    if tick = 0 then
      for _ = 1 to s.s_initial do admit ~arrival:0 k done;
    let arrivals = Prng.Dist.poisson sched ~lambda:s.s_arrival_rate in
    for _ = 1 to arrivals do admit ~arrival:tick k done

let of_spec (s : spec) =
  let admit = admissions s in
  let plans = ref [] in
  let keep p = plans := p :: !plans in
  for tick = 0 to s.s_ticks - 1 do admit ~tick keep done;
  { spec = s; plans = Array.of_list (List.rev !plans) }

let spec_of t = t.spec
let dim t = t.spec.s_dim
let ticks t = t.spec.s_ticks
let sessions t = Array.length t.plans

let peak_live t =
  (* Sweep open/close deltas over the tick line. *)
  let delta = Array.make (t.spec.s_ticks + 1) 0 in
  Array.iter
    (fun p ->
      delta.(p.arrival) <- delta.(p.arrival) + 1;
      delta.(p.arrival + p.rounds) <- delta.(p.arrival + p.rounds) - 1)
    t.plans;
  let live = ref 0 and peak = ref 0 in
  Array.iter
    (fun d ->
      live := !live + d;
      if !live > !peak then peak := !live)
    delta;
  !peak

let plans t = t.plans

let plan_cursor (s : spec) (p : plan) =
  let rng = Prng.Stream.named ~name:"open-world-session" ~seed:p.seed in
  match p.family with
  | 0 -> Clusters.cursor ~dim:s.s_dim rng
  | 1 -> Bursts.cursor ~dim:s.s_dim rng
  | 2 -> Random_walk.cursor ~dim:s.s_dim rng
  | i -> invalid_arg (Printf.sprintf "Open_world.plan_cursor: family %d" i)

(* Each catalog [generate] is its cursor plus [Array.init], so this is
   bit-identical to generating the family's instance directly. *)
let plan_instance t (p : plan) =
  let start, next = plan_cursor t.spec p in
  Mobile_server.Instance.make ~start (Array.init p.rounds (fun _ -> next ()))

(* Streaming schedule: no plan array is ever built.  Each plan is
   opened the moment {!admissions} draws it — cursor first, then
   [open_] — and a live session holds only its plan and workload
   cursor; the per-round request arrays come from the cursor.  Live
   state is O(concurrently live sessions), independent of the
   schedule's total session count. *)
let iter_stream (s : spec) ~open_ ~step ~close ~tick_end =
  let admit = admissions s in
  (* Live sessions in id order: arrivals append, closes filter — no
     hash iteration order anywhere. *)
  let live = ref [] in
  for tick = 0 to s.s_ticks - 1 do
    (* A fresh list per tick: one ref hoisted out of the loop held
       perfbench serve-stream's peak RSS 1.7 MB higher (128.5 -> 130.2
       MB, 2-vCPU VM, OCaml 5.1.1). *)
    let opened = ref [] in
    admit ~tick (fun p ->
        let start, next = plan_cursor s p in
        open_ p ~start;
        opened := (p, next) :: !opened);
    live := !live @ List.rev !opened;
    List.iter
      (fun ((p : plan), next) -> step p ~round:(tick - p.arrival) (next ()))
      !live;
    live :=
      List.filter
        (fun ((p : plan), _) ->
          let finished = tick - p.arrival = p.rounds - 1 in
          if finished then close p;
          not finished)
        !live;
    tick_end ~tick
  done

let fingerprint t =
  let s = t.spec in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "open-world-v1 dim=%d seed=%d ticks=%d rate=%Lx life=%Lx initial=%d\n"
       s.s_dim s.s_seed s.s_ticks
       (Int64.bits_of_float s.s_arrival_rate)
       (Int64.bits_of_float s.s_mean_lifetime)
       s.s_initial);
  Array.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%Ld %d %d %d %d\n" p.id p.seed p.family p.arrival
           p.rounds))
    t.plans;
  Digest.to_hex (Digest.string (Buffer.contents buf))
