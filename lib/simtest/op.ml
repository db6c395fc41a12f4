type bad_request = Dim_mismatch | Non_finite

type bad_frame = Truncated | Bad_version | Non_finite_coord

type corruption = Offline.Opt_cache.Faults.read_corruption =
  | Sys_err
  | Truncate
  | Garbage

type op =
  | Step of float array array
  | Bad_step of bad_request
  | Reset
  | Checkpoint
  | Opt_query
  | Cache_evict
  | Cache_clear
  | Disk_write_fail
  | Disk_read_corrupt of corruption
  | Fleet_check of int
  | Concurrent_step of int
  | Serve_open
  | Serve_step of int * float array array
  | Serve_checkpoint of int
  | Serve_close of int
  | Serve_kill of int * bool
  | Serve_bad_frame of bad_frame
  | Fleet_opt_check of int

(* --- generation ------------------------------------------------------ *)

(* The request arena: 1-D coordinates within ±[arena], wide enough that
   the movement budget m = 1 binds (clamping and DP windows are
   exercised), narrow enough that the line-DP grid stays small. *)
let arena = 8.0

let gen_round g =
  let n = Prng.Xoshiro.next_below g 4 in
  Array.init n (fun _ -> [| Prng.Dist.uniform g ~lo:(-.arena) ~hi:arena |])

(* The op mix: each kind's relative weight (they need not sum to 1)
   beside its draw.  Step-heavy, with a few percent of every fault and
   cross-check. *)
let mix =
  [|
    (0.50, fun g -> Step (gen_round g));
    ( 0.04,
      fun g ->
        Bad_step (if Prng.Dist.fair_coin g then Dim_mismatch else Non_finite) );
    (0.04, fun _ -> Reset);
    (0.05, fun _ -> Checkpoint);
    (0.05, fun _ -> Opt_query);
    (0.03, fun _ -> Cache_evict);
    (0.04, fun _ -> Cache_clear);
    (0.03, fun _ -> Disk_write_fail);
    ( 0.04,
      fun g ->
        Disk_read_corrupt
          (match Prng.Xoshiro.next_below g 3 with
           | 0 -> Sys_err
           | 1 -> Truncate
           | _ -> Garbage) );
    (0.04, fun g -> Fleet_check (2 + Prng.Xoshiro.next_below g 3));
    (0.02, fun g -> Concurrent_step (2 + Prng.Xoshiro.next_below g 5));
    (0.05, fun _ -> Serve_open);
    ( 0.10,
      fun g ->
        let t = Prng.Xoshiro.next_below g 8 in
        Serve_step (t, gen_round g) );
    (0.03, fun g -> Serve_checkpoint (Prng.Xoshiro.next_below g 8));
    (0.03, fun g -> Serve_close (Prng.Xoshiro.next_below g 8));
    ( 0.02,
      fun g ->
        let shard = Prng.Xoshiro.next_below g 8 in
        Serve_kill (shard, Prng.Dist.fair_coin g) );
    ( 0.02,
      fun g ->
        Serve_bad_frame
          (match Prng.Xoshiro.next_below g 3 with
           | 0 -> Truncated
           | 1 -> Bad_version
           | _ -> Non_finite_coord) );
    (0.03, fun g -> Fleet_opt_check (2 + Prng.Xoshiro.next_below g 2));
  |]

let total = Array.fold_left (fun acc (w, _) -> acc +. w) 0.0 mix

(* The first kind whose cumulative weight exceeds [x]; kind 0 when
   rounding leaves [x] past the last sum. *)
let pick x =
  let rec scan i acc =
    if i = Array.length mix then 0
    else
      let acc = acc +. fst mix.(i) in
      if x < acc then i else scan (i + 1) acc
  in
  scan 0 0.0

let gen g =
  let x = Prng.Dist.uniform g ~lo:0.0 ~hi:total in
  snd mix.(pick x) g

(* --- serialization --------------------------------------------------- *)

(* Floats travel as the hex of their IEEE-754 bits (the same convention
   as the opt-cache disk store): parsing recovers the exact bit
   pattern, so a replayed op list is byte-identical to the original. *)
let float_to_hex x = Printf.sprintf "%016Lx" (Int64.bits_of_float x)

let float_of_hex s =
  if String.length s <> 16 then Error (Printf.sprintf "bad float %S" s)
  else
    match Int64.of_string ("0x" ^ s) with
    | exception Failure _ -> Error (Printf.sprintf "bad float %S" s)
    | bits -> Ok (Int64.float_of_bits bits)

let corruption_to_string = function
  | Sys_err -> "sys-error"
  | Truncate -> "truncate"
  | Garbage -> "garbage"

let round_to_string requests =
  let req v = String.concat "," (Array.to_list (Array.map float_to_hex v)) in
  String.concat ";" (Array.to_list (Array.map req requests))

let bad_frame_to_string = function
  | Truncated -> "truncated"
  | Bad_version -> "bad-version"
  | Non_finite_coord -> "non-finite"

let to_string = function
  | Step requests ->
    let body = round_to_string requests in
    if body = "" then "step" else "step " ^ body
  | Bad_step Dim_mismatch -> "bad-step dim"
  | Bad_step Non_finite -> "bad-step nan"
  | Reset -> "reset"
  | Checkpoint -> "checkpoint"
  | Opt_query -> "opt-query"
  | Cache_evict -> "cache-evict"
  | Cache_clear -> "cache-clear"
  | Disk_write_fail -> "disk-write-fail"
  | Disk_read_corrupt c -> "disk-read-corrupt " ^ corruption_to_string c
  | Fleet_check k -> Printf.sprintf "fleet-check %d" k
  | Concurrent_step k -> Printf.sprintf "concurrent-step %d" k
  | Serve_open -> "serve-open"
  | Serve_step (t, requests) ->
    let body = round_to_string requests in
    if body = "" then Printf.sprintf "serve-step %d" t
    else Printf.sprintf "serve-step %d %s" t body
  | Serve_checkpoint t -> Printf.sprintf "serve-checkpoint %d" t
  | Serve_close t -> Printf.sprintf "serve-close %d" t
  | Serve_kill (shard, lose) ->
    Printf.sprintf "serve-kill %d %s" shard (if lose then "lose" else "keep")
  | Serve_bad_frame kind -> "serve-bad-frame " ^ bad_frame_to_string kind
  | Fleet_opt_check k -> Printf.sprintf "fleet-opt %d" k

let ( let* ) = Result.bind

let parse_request s =
  let coords = String.split_on_char ',' s in
  let rec go acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | c :: rest ->
      let* x = float_of_hex c in
      go (x :: acc) rest
  in
  go [] coords

let parse_round s =
  if s = "" then Ok [||]
  else
    let reqs = String.split_on_char ';' s in
    let rec go acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | r :: rest ->
        let* v = parse_request r in
        go (v :: acc) rest
    in
    go [] reqs

let parse_int s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "bad integer %S" s)

let of_string line =
  let line = String.trim line in
  let word, rest =
    match String.index_opt line ' ' with
    | None -> (line, "")
    | Some i ->
      ( String.sub line 0 i,
        String.trim (String.sub line (i + 1) (String.length line - i - 1)) )
  in
  match (word, rest) with
  | "step", body -> Result.map (fun r -> Step r) (parse_round body)
  | "bad-step", "dim" -> Ok (Bad_step Dim_mismatch)
  | "bad-step", "nan" -> Ok (Bad_step Non_finite)
  | "reset", "" -> Ok Reset
  | "checkpoint", "" -> Ok Checkpoint
  | "opt-query", "" -> Ok Opt_query
  | "cache-evict", "" -> Ok Cache_evict
  | "cache-clear", "" -> Ok Cache_clear
  | "disk-write-fail", "" -> Ok Disk_write_fail
  | "disk-read-corrupt", "sys-error" -> Ok (Disk_read_corrupt Sys_err)
  | "disk-read-corrupt", "truncate" -> Ok (Disk_read_corrupt Truncate)
  | "disk-read-corrupt", "garbage" -> Ok (Disk_read_corrupt Garbage)
  | "fleet-check", k -> Result.map (fun k -> Fleet_check k) (parse_int k)
  | "concurrent-step", k ->
    Result.map (fun k -> Concurrent_step k) (parse_int k)
  | "serve-open", "" -> Ok Serve_open
  | "serve-step", body ->
    let t, round =
      match String.index_opt body ' ' with
      | None -> (body, "")
      | Some i ->
        ( String.sub body 0 i,
          String.trim (String.sub body (i + 1) (String.length body - i - 1)) )
    in
    let* t = parse_int t in
    Result.map (fun r -> Serve_step (t, r)) (parse_round round)
  | "serve-checkpoint", t ->
    Result.map (fun t -> Serve_checkpoint t) (parse_int t)
  | "serve-close", t -> Result.map (fun t -> Serve_close t) (parse_int t)
  | "serve-kill", body ->
    (match String.split_on_char ' ' body with
     | [ shard; mode ] ->
       let* shard = parse_int shard in
       (match mode with
        | "keep" -> Ok (Serve_kill (shard, false))
        | "lose" -> Ok (Serve_kill (shard, true))
        | _ -> Error (Printf.sprintf "bad serve-kill mode %S" mode))
     | _ -> Error (Printf.sprintf "bad serve-kill operands %S" body))
  | "serve-bad-frame", "truncated" -> Ok (Serve_bad_frame Truncated)
  | "serve-bad-frame", "bad-version" -> Ok (Serve_bad_frame Bad_version)
  | "serve-bad-frame", "non-finite" -> Ok (Serve_bad_frame Non_finite_coord)
  | "fleet-opt", k -> Result.map (fun k -> Fleet_opt_check k) (parse_int k)
  | _ -> Error (Printf.sprintf "unknown op %S" line)

(* --- shrinking-time simplification ----------------------------------- *)

let simplify = function
  | Step requests when Array.length requests > 0 ->
    (* Candidates ordered smallest first, so the shrinker lands on the
       shortest still-failing round. *)
    List.init (Array.length requests) (fun n -> Step (Array.sub requests 0 n))
  | Fleet_check k when k > 2 -> [ Fleet_check 2 ]
  | Fleet_opt_check k when k > 2 -> [ Fleet_opt_check 2 ]
  | Concurrent_step k when k > 2 -> [ Concurrent_step 2 ]
  | Serve_step (t, requests) when Array.length requests > 0 ->
    List.init (Array.length requests) (fun n ->
        Serve_step (t, Array.sub requests 0 n))
  | Serve_kill (shard, true) -> [ Serve_kill (shard, false) ]
  | _ -> []
