(* Deterministic fan-out over OCaml 5 domains.

   Scheduling is free to vary; results are not.  Every entry point
   writes results into per-index slots, so the observable output of
   [map] is a pure function of the input — never of the interleaving.
   See docs/parallel.md. *)

(* ------------------------------------------------------------------ *)
(* Worker pool: bounded queue, caller-runs overflow, work-helping.     *)

module Pool = struct
  type task = unit -> unit

  type t = {
    lock : Mutex.t;
    not_empty : Condition.t;
    stopped : Condition.t;
    queue : task Queue.t; [@guarded_by lock]
    capacity : int;
    mutable stopping : bool; [@guarded_by lock]
    mutable joined : bool; [@guarded_by lock]
    mutable workers : unit Domain.t array;
        [@unguarded
          "written only by the creating domain (create) and the single \
           joining shutdown caller (the one that flipped [stopping]), \
           after every worker has been joined"]
    size : int;
  }

  let size pool = pool.size

  (* Pop one task if any; used both by workers and by helping
     submitters. *)
  let try_pop pool =
    Mutex.lock pool.lock;
    let task =
      if Queue.is_empty pool.queue then None else Some (Queue.pop pool.queue)
    in
    Mutex.unlock pool.lock;
    task

  let worker_loop pool =
    let rec loop () =
      Mutex.lock pool.lock;
      while Queue.is_empty pool.queue && not pool.stopping do
        Condition.wait pool.not_empty pool.lock
      done;
      if Queue.is_empty pool.queue then
        (* Stopping and fully drained. *)
        Mutex.unlock pool.lock
      else begin
        let task = Queue.pop pool.queue in
        Mutex.unlock pool.lock;
        task ();
        loop ()
      end
    in
    loop ()

  let create ~jobs =
    if jobs < 1 then invalid_arg "Exec.Pool.create: jobs < 1";
    let pool =
      {
        lock = Mutex.create ();
        not_empty = Condition.create ();
        stopped = Condition.create ();
        queue = Queue.create ();
        capacity = Stdlib.max 4 (2 * jobs);
        stopping = false;
        joined = false;
        workers = [||];
        size = jobs;
      }
    in
    pool.workers <-
      Array.init jobs (fun _ -> Domain.spawn (fun () -> worker_loop pool));
    pool

  (* Enqueue if there is room, otherwise run the task in the calling
     domain.  Submission therefore never blocks, which is what makes
     nested [run] calls deadlock-free: a domain that cannot hand work
     off simply does it.  A pool that is stopping (or already shut
     down) also takes the caller-runs path: a [run] racing a
     [shutdown] — the simtest harness's Concurrent_step op tears pools
     down while sibling ops still submit — must neither deadlock nor
     blow up halfway through its submit loop with some tasks already
     queued.  Degrading to the submitting domain keeps every result
     slot filled and bit-identical (scheduling is never observable).
     Invariant: the queue never grows after [stopping] is set, which is
     what lets [shutdown]'s join terminate. *)
  let submit pool task =
    Mutex.lock pool.lock;
    if pool.stopping || Queue.length pool.queue >= pool.capacity then begin
      Mutex.unlock pool.lock;
      task ()
    end
    else begin
      Queue.push task pool.queue;
      Condition.signal pool.not_empty;
      Mutex.unlock pool.lock
    end

  let run pool ~tasks f =
    if tasks < 0 then invalid_arg "Exec.Pool.run: negative task count";
    if tasks > 0 then begin
      let latch = Mutex.create () in
      let all_done = Condition.create () in
      let remaining = ref tasks in
      let failure = ref None in
      let wrapped i () =
        (try f i
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           Mutex.lock latch;
           if Option.is_none !failure then failure := Some (e, bt);
           Mutex.unlock latch);
        Mutex.lock latch;
        decr remaining;
        if !remaining = 0 then Condition.broadcast all_done;
        Mutex.unlock latch
      in
      for i = 0 to tasks - 1 do
        submit pool (wrapped i)
      done;
      (* Help: drain whatever is queued (our tasks and anyone else's)
         instead of blocking a whole domain on the latch. *)
      let rec help () =
        match try_pop pool with
        | Some task ->
          task ();
          help ()
        | None -> ()
      in
      help ();
      (* Our tasks were all submitted before [help] started, so any
         that remain are running on other domains: wait them out. *)
      Mutex.lock latch;
      while !remaining > 0 do
        Condition.wait all_done latch
      done;
      let failed = !failure in
      Mutex.unlock latch;
      match failed with
      | None -> ()
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    end

  (* The first caller flips [stopping], joins the workers and
     announces completion; any concurrent caller waits for that
     announcement instead of returning while worker domains are still
     alive (the old early return let a second shutdown — e.g. the
     at_exit hook racing an explicit one — proceed as if teardown were
     done).  Workers drain the queue before exiting, so every task
     queued before the flip still runs; tasks submitted after it run
     caller-side (see [submit]). *)
  let shutdown pool =
    Mutex.lock pool.lock;
    if pool.stopping then begin
      while not pool.joined do
        Condition.wait pool.stopped pool.lock
      done;
      Mutex.unlock pool.lock
    end
    else begin
      pool.stopping <- true;
      Condition.broadcast pool.not_empty;
      Mutex.unlock pool.lock;
      Array.iter Domain.join pool.workers;
      pool.workers <- [||];
      Mutex.lock pool.lock;
      pool.joined <- true;
      Condition.broadcast pool.stopped;
      Mutex.unlock pool.lock
    end
end

(* ------------------------------------------------------------------ *)
(* Global jobs setting and shared pool.                                *)

let default_jobs () = Stdlib.max 1 (Domain.recommended_domain_count () - 1)

(* 0 means "unset, use the default". *)
let jobs_setting = Atomic.make 0

let set_jobs n =
  if n < 1 then invalid_arg "Exec.set_jobs: jobs < 1";
  Atomic.set jobs_setting n

let jobs () =
  let n = Atomic.get jobs_setting in
  if n <= 0 then default_jobs () else n

(* One shared pool, lazily created and resized on demand.  Protected by
   its own mutex; the workers are joined through at_exit so the process
   never exits with domains still parked on the queue condition. *)
let pool_lock = Mutex.create ()
let shared_pool : Pool.t option ref = ref None [@@guarded_by pool_lock]
let exit_hook_installed = ref false [@@guarded_by pool_lock]

let shutdown_shared () =
  Mutex.lock pool_lock;
  let pool = !shared_pool in
  shared_pool := None;
  Mutex.unlock pool_lock;
  match pool with None -> () | Some p -> Pool.shutdown p

let obtain_pool n =
  Mutex.lock pool_lock;
  if not !exit_hook_installed then begin
    exit_hook_installed := true;
    at_exit shutdown_shared
  end;
  let reuse =
    match !shared_pool with
    | Some p when Pool.size p = n -> Some p
    | _ -> None
  in
  match reuse with
  | Some p ->
    Mutex.unlock pool_lock;
    p
  | None ->
    let previous = !shared_pool in
    shared_pool := None;
    Mutex.unlock pool_lock;
    (match previous with None -> () | Some p -> Pool.shutdown p);
    let p = Pool.create ~jobs:n in
    Mutex.lock pool_lock;
    (* Another domain may have installed a pool while ours was being
       created; never overwrite it blindly — the loser's pool would
       leak with its worker domains parked forever.  Exactly one pool
       survives, every other one is shut down. *)
    (match !shared_pool with
     | Some q when Pool.size q = n ->
       Mutex.unlock pool_lock;
       Pool.shutdown p;
       q
     | displaced ->
       shared_pool := Some p;
       Mutex.unlock pool_lock;
       (match displaced with None -> () | Some q -> Pool.shutdown q);
       p)

(* ------------------------------------------------------------------ *)
(* Deterministic seed splitting.                                       *)

let golden_gamma = 0x9E3779B97F4A7C15L

let derive_seed ~parent i =
  if i < 0 then invalid_arg "Exec.derive_seed: negative index";
  let material =
    Int64.logxor (Int64.of_int parent)
      (Int64.mul golden_gamma (Int64.of_int (i + 1)))
  in
  let sm = Prng.Splitmix.create material in
  Int64.to_int (Int64.shift_right_logical (Prng.Splitmix.next sm) 1)

(* ------------------------------------------------------------------ *)
(* High-level maps.                                                    *)

let effective_jobs = function
  | Some n ->
    if n < 1 then invalid_arg "Exec.map: jobs < 1";
    n
  | None -> jobs ()

let sequential_mapi f arr = Array.init (Array.length arr) (fun i -> f i arr.(i))

let mapi ?jobs:requested f arr =
  let n = Array.length arr in
  let j = effective_jobs requested in
  if j <= 1 || n <= 1 then sequential_mapi f arr
  else begin
    let pool = obtain_pool j in
    let out = Array.make n None in
    Pool.run pool ~tasks:n (fun i -> out.(i) <- Some (f i arr.(i)));
    Array.map
      (function
        | Some v -> v
        | None -> invalid_arg "Exec.mapi: cell produced no result")
      out
  end

let map ?jobs f arr = mapi ?jobs (fun _ x -> f x) arr

let map_list ?jobs f xs = Array.to_list (map ?jobs f (Array.of_list xs))
