module Config = Mobile_server.Config
module Instance = Mobile_server.Instance
module Variant = Mobile_server.Variant

type stats = { hits : int; misses : int; disk_hits : int; evictions : int }

(* Every piece of mutable state sits behind one mutex: the experiment
   engine calls into the cache from worker domains.  Values are pure
   functions of their keys, so concurrent duplicate computes (we never
   hold the lock across a solve) are wasteful at worst, never wrong. *)
let lock = Mutex.create ()

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
[@@lock_wrapper lock]

(* digest -> (optimum cost, last-use tick) *)
let table : (string, float * int) Hashtbl.t = Hashtbl.create 512
[@@guarded_by lock]

let clock = ref 0 [@@guarded_by lock]
let capacity = ref 512 [@@guarded_by lock]
let enabled = ref true [@@guarded_by lock]
let dir = ref (Sys.getenv_opt "MSP_OPT_CACHE_DIR") [@@guarded_by lock]
let hits = ref 0 [@@guarded_by lock]
let misses = ref 0 [@@guarded_by lock]
let disk_hits = ref 0 [@@guarded_by lock]
let evictions = ref 0 [@@guarded_by lock]

(* The key covers exactly what an offline solve can observe: the solver
   id with its resolution knobs, the model parameters D and the offline
   budget (= [move_limit]) plus the cost variant, and the full IEEE bit
   pattern of the instance — via [Instance.Packed.content_digest], the
   memoized MD5 of the serialization.  Digesting the 16-byte instance
   digest instead of the raw serialize bytes makes repeat lookups on
   the same instance O(1): serialization is paid once per instance, not
   once per lookup (the v1 key re-serialized every time).  [delta]
   shapes online runs only and is deliberately excluded — sweeping it
   must keep hitting the same entries. *)
let key ~solver (config : Config.t) packed =
  let buf = Buffer.create (64 + String.length solver) in
  Buffer.add_string buf "msp-opt-cache-v2\n";
  Buffer.add_string buf solver;
  Buffer.add_char buf '\n';
  Buffer.add_int64_le buf (Int64.bits_of_float config.Config.d_factor);
  Buffer.add_int64_le buf (Int64.bits_of_float config.Config.move_limit);
  Buffer.add_char buf
    (if Variant.equal config.Config.variant Variant.Serve_first then 'S'
     else 'M');
  Buffer.add_string buf (Instance.Packed.content_digest packed);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* --- deterministic fault injection (simtest hooks) ------------------- *)

(* One-shot fault arms consumed by the next disk IO.  Unarmed (the
   production state) the store's code path is exactly the unhooked one;
   the simtest harness arms a fault, the next read/write hits it, and
   the arm clears — so a run is a pure function of its op sequence. *)
module Faults = struct
  type read_corruption = Sys_err | Truncate | Garbage

  let pending_write_fail = ref false [@@guarded_by lock]
  let pending_read : read_corruption option ref = ref None [@@guarded_by lock]
  let quarantined_files = ref 0 [@@guarded_by lock]

  let fail_next_write () = with_lock (fun () -> pending_write_fail := true)
  let corrupt_next_read c = with_lock (fun () -> pending_read := Some c)

  let clear () =
    with_lock (fun () ->
        pending_write_fail := false;
        pending_read := None)

  let take_write_fail () =
    with_lock (fun () ->
        let armed = !pending_write_fail in
        pending_write_fail := false;
        armed)

  let take_read () =
    with_lock (fun () ->
        let armed = !pending_read in
        pending_read := None;
        armed)

  let quarantined () = with_lock (fun () -> !quarantined_files)
  let note_quarantine () = with_lock (fun () -> incr quarantined_files)
end

(* --- optional on-disk store ----------------------------------------- *)

let disk_path d digest = Filename.concat d (digest ^ ".opt")

(* Versioned binary entry, following [Serve.Frame]'s conventions
   (multi-byte integers big-endian, floats as raw IEEE-754 bits, total
   precise decoding): a 4-byte magic, a version byte, then the 8 bits
   of the optimum cost — 13 bytes, no textual round-trip anywhere.
   Anything else on disk — wrong length, wrong magic, an unknown or
   stale version (including v1's 17-byte hex entries), torn writes, bit
   rot, foreign files — must behave as a miss: the value recomputes
   from the digest's inputs, so dropping the entry is always safe,
   while trusting it never is. *)
let entry_magic = "MSPO"
let entry_version = '\x02'
let entry_length = 13

let encode_entry value =
  let b = Bytes.create entry_length in
  Bytes.blit_string entry_magic 0 b 0 4;
  Bytes.set b 4 entry_version;
  let bits = Int64.bits_of_float value in
  for i = 0 to 7 do
    Bytes.set b (5 + i)
      (Char.chr
         (Int64.to_int (Int64.shift_right_logical bits ((7 - i) * 8))
          land 0xFF))
  done;
  Bytes.unsafe_to_string b

(* Total decoder: [None] on any malformed entry, never an exception. *)
let decode_entry s =
  if String.length s <> entry_length then None
  else if not (String.equal (String.sub s 0 4) entry_magic) then None
  else if not (Char.equal s.[4] entry_version) then None
  else begin
    let bits = ref 0L in
    for i = 5 to entry_length - 1 do
      bits :=
        Int64.logor (Int64.shift_left !bits 8) (Int64.of_int (Char.code s.[i]))
    done;
    Some (Int64.float_of_bits !bits)
  end

(* Remove a corrupt entry so it cannot be re-read (and re-rejected)
   forever; best-effort, like every disk-store operation. *)
let quarantine path =
  Faults.note_quarantine ();
  try Sys.remove path with Sys_error _ -> ()

let overwrite_file path bytes =
  try
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc bytes)
  with Sys_error _ -> ()

(* Costs travel as raw IEEE-754 bits — never [float_of_string], which
   is lossy in text round-trips and a lint-banned NaN source.  The
   whole read is guarded: a corrupt, truncated or version-mismatched
   entry (or an IO error mid-read) is a miss, never an exception
   escaping into the lookup path, and never a garbage float poisoning
   the in-memory LRU.  Invalid entries are quarantined (removed). *)
let disk_read d digest =
  let path = disk_path d digest in
  (match Faults.take_read () with
   | None -> ()
   | Some Faults.Truncate -> overwrite_file path entry_magic
   | Some Faults.Garbage ->
     overwrite_file path (String.make entry_length 'z')
   | Some Faults.Sys_err -> raise (Sys_error "opt-cache: injected read fault"));
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    let entry =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          try
            let len = in_channel_length ic in
            if len <> entry_length then None
            else decode_entry (really_input_string ic entry_length)
          with Sys_error _ | End_of_file -> None)
    in
    (match entry with
     | None ->
       quarantine path;
       None
     | some -> some)

let disk_read d digest =
  try disk_read d digest with Sys_error _ -> None

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if String.length parent < String.length d then mkdir_p parent;
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

(* Best-effort and atomic: a unique temp file renamed into place, so a
   concurrent reader sees either nothing or a complete entry.  Any IO
   failure silently degrades to an uncached solve. *)
let disk_write d digest value =
  try
    if Faults.take_write_fail () then
      raise (Sys_error "opt-cache: injected write fault");
    mkdir_p d;
    let tmp = Filename.temp_file ~temp_dir:d "opt-" ".tmp" in
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (encode_entry value));
    Sys.rename tmp (disk_path d digest)
  with Sys_error _ -> ()

(* --- in-memory LRU --------------------------------------------------- *)

(* Caller holds the lock.  O(n) victim scan, acceptable at the default
   capacity and paid only on inserts past the limit.  The fold is
   order-independent: ticks are unique (the clock only advances under
   the lock), so min-by-(tick, key) has exactly one fixed point
   whatever order the table yields entries in. *)
let evict_over_capacity () =
  while Hashtbl.length table > !capacity do
    let victim =
      (* msp-lint: allow determinism-hashtbl-order — commutative min *)
      Hashtbl.fold
        (fun k (_, tick) best ->
          match best with
          | Some (bk, bt) when bt < tick || (bt = tick && bk <= k) -> best
          | _ -> Some (k, tick))
        table None
    in
    match victim with
    | Some (k, _) ->
      Hashtbl.remove table k;
      incr evictions
    | None -> ()
  done
[@@requires_lock lock]

(* Lookup core shared by every entry point: memory, then disk, then
   compute.  [digest] must be a pure function of everything the
   computation can observe. *)
let lookup digest compute =
  begin
    let mem =
      with_lock (fun () ->
          match Hashtbl.find_opt table digest with
          | Some (v, _) ->
            incr clock;
            Hashtbl.replace table digest (v, !clock);
            incr hits;
            Some v
          | None -> None)
    in
    match mem with
    | Some v -> v
    | None ->
      let d = with_lock (fun () -> !dir) in
      (match Option.bind d (fun d -> disk_read d digest) with
       | Some v ->
         with_lock (fun () ->
             incr disk_hits;
             incr clock;
             Hashtbl.replace table digest (v, !clock);
             evict_over_capacity ());
         v
       | None ->
         let v = compute () in
         with_lock (fun () ->
             incr misses;
             incr clock;
             Hashtbl.replace table digest (v, !clock);
             evict_over_capacity ());
         (match d with None -> () | Some d -> disk_write d digest v);
         v)
  end

let find_or_compute ~solver config packed compute =
  if not (with_lock (fun () -> !enabled)) then compute ()
  else lookup (key ~solver config packed) compute

(* Arbitrary-key entry for optima that are not Euclidean instances
   (graph Page Migration keys itself by graph bytes + instance).  The
   format tag keeps keyed digests disjoint from the config-keyed
   ones. *)
let find_or_compute_keyed ~solver ~key:bytes compute =
  if not (with_lock (fun () -> !enabled)) then compute ()
  else begin
    let buf = Buffer.create (64 + String.length solver + String.length bytes) in
    Buffer.add_string buf "msp-opt-cache-keyed-v1\n";
    Buffer.add_string buf solver;
    Buffer.add_char buf '\n';
    Buffer.add_string buf bytes;
    lookup (Digest.to_hex (Digest.string (Buffer.contents buf))) compute
  end

(* --- solver entry points --------------------------------------------- *)

(* Defaults mirror the wrapped solvers, so a cached call with all
   options omitted keys the same entry as an explicit default call. *)

let line_dp ?(grid_per_m = 64) config packed =
  find_or_compute
    ~solver:(Printf.sprintf "line-dp:g%d" grid_per_m)
    config packed
    (fun () -> Line_dp.optimum_packed ~grid_per_m config packed)

let convex ?(max_iter = 400) ?(sweeps = 30) config packed =
  find_or_compute
    ~solver:(Printf.sprintf "convex:i%d:s%d" max_iter sweeps)
    config packed
    (fun () -> Convex_opt.optimum_packed ~max_iter ~sweeps config packed)

(* --- administration --------------------------------------------------- *)

let set_enabled b = with_lock (fun () -> enabled := b)

let set_capacity n =
  if n < 1 then invalid_arg "Opt_cache.set_capacity: capacity < 1";
  with_lock (fun () ->
      capacity := n;
      evict_over_capacity ())

let set_disk_dir d = with_lock (fun () -> dir := d)

let disk_dir () = with_lock (fun () -> !dir)

let clear () = with_lock (fun () -> Hashtbl.reset table)

let stats () =
  with_lock (fun () ->
      { hits = !hits; misses = !misses; disk_hits = !disk_hits;
        evictions = !evictions })

let reset_stats () =
  with_lock (fun () ->
      hits := 0;
      misses := 0;
      disk_hits := 0;
      evictions := 0)
