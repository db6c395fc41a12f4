[@@@no_boxed_floats]

let protocol_version = 1
let max_payload = 16 * 1024 * 1024

type request =
  | Open of { session : int64; seed : int; start : float array }
  | Step of { session : int64; requests : float array array }
  | Checkpoint of { session : int64 }
  | Close of { session : int64 }

type error_code = Bad_frame | Unknown_session | Duplicate_session | Bad_request

type reply =
  | Opened of { session : int64 }
  | Stepped of {
      session : int64;
      position : float array;
      move : float;
      service : float;
      clamped : bool;
    }
  | Snapshot of {
      session : int64;
      rounds : int;
      clamped_rounds : int;
      position : float array;
      move : float;
      service : float;
    }
  | Closed of {
      session : int64;
      rounds : int;
      clamped_rounds : int;
      position : float array;
      move : float;
      service : float;
    }
  | Error of { session : int64; code : error_code; message : string }

let error_code_to_string = function
  | Bad_frame -> "bad-frame"
  | Unknown_session -> "unknown-session"
  | Duplicate_session -> "duplicate-session"
  | Bad_request -> "bad-request"

(* --- opcodes ---------------------------------------------------------- *)

let op_open = 0x01
let op_step = 0x02
let op_checkpoint = 0x03
let op_close = 0x04
let op_opened = 0x81
let op_stepped = 0x82
let op_snapshot = 0x83
let op_closed = 0x84
let op_error = 0xFF

let error_code_byte = function
  | Bad_frame -> 0x01
  | Unknown_session -> 0x02
  | Duplicate_session -> 0x03
  | Bad_request -> 0x04

let error_code_of_byte = function
  | 0x01 -> Some Bad_frame
  | 0x02 -> Some Unknown_session
  | 0x03 -> Some Duplicate_session
  | 0x04 -> Some Bad_request
  | _ -> None

(* --- byte access ------------------------------------------------------ *)

(* 8-byte fields move as one unboxed 64-bit load or store.  The wire is
   big-endian and the primitives use host order, so little-endian hosts
   swap; [big_endian ()] folds to a constant at compile time. *)
external big_endian : unit -> bool = "%big_endian"
external swap64 : int64 -> int64 = "%bswap_int64"
external bytes_set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external string_get64u : string -> int -> int64 = "%caml_string_get64u"

(* --- encoding --------------------------------------------------------- *)

(* An encoder computes the frame's exact length first, which depends
   only on the opcode, the vector dimensions and the request count,
   checking each count and dimension against its field width on the
   way.  It then fills one [Bytes.t] in place.  The writers take a
   position and return the next one; the length is exact, so their
   unchecked stores stay in bounds, and [finish] checks that they
   filled the frame. *)

let max_u16 = 0xFFFF
let max_u32 = 0xFFFF_FFFF

let check_u16 fn what n =
  if n > max_u16 then
    invalid_arg
      (Printf.sprintf "Serve.Frame.%s: %s %d exceeds %d" fn what n max_u16)

let check_u32 fn what n =
  if n < 0 || n > max_u32 then
    invalid_arg
      (Printf.sprintf "Serve.Frame.%s: %s %d outside [0, %d]" fn what n
         max_u32)

(* Field labels, for messages only: [index] >= 0 names element [index]
   of a step ("request 3"). *)
let label what index =
  if index < 0 then what else Printf.sprintf "%s %d" what index

(* Wire size of a vector: a u16 dimension, then the coordinates. *)
let vec_size fn what index v =
  let dim = Array.length v in
  if dim > max_u16 then check_u16 fn (label what index ^ " dimension") dim;
  2 + (8 * dim)

let[@inline] put_u8 b pos v =
  Bytes.unsafe_set b pos (Char.unsafe_chr (v land 0xFF));
  pos + 1

let[@inline] put_u16 b pos v =
  Bytes.unsafe_set b pos (Char.unsafe_chr ((v lsr 8) land 0xFF));
  Bytes.unsafe_set b (pos + 1) (Char.unsafe_chr (v land 0xFF));
  pos + 2

let[@inline] put_u32 b pos v = put_u16 b (put_u16 b pos (v lsr 16)) v

let[@inline] set_i64 b pos v =
  bytes_set64u b pos (if big_endian () then v else swap64 v)

let[@inline] put_i64 b pos v =
  set_i64 b pos v;
  pos + 8

let[@inline] put_f64 b pos x = put_i64 b pos (Int64.bits_of_float x)

let put_vec b pos v =
  let dim = Array.length v in
  let pos = put_u16 b pos dim in
  for i = 0 to dim - 1 do
    set_i64 b (pos + (8 * i)) (Int64.bits_of_float (Array.unsafe_get v i))
  done;
  pos + (8 * dim)

(* A frame whose payload is the version tag, [opcode] and [body] bytes,
   with its first 6 bytes written. *)
let create_frame fn ~opcode body =
  let n = 2 + body in
  if n > max_payload then
    invalid_arg
      (Printf.sprintf "Serve.Frame.%s: payload of %d byte(s) exceeds max \
                       payload %d"
         fn n max_payload);
  let b = Bytes.create (4 + n) in
  ignore (put_u8 b (put_u8 b (put_u32 b 0 n) protocol_version) opcode : int);
  b

let finish b pos =
  assert (pos = Bytes.length b);
  Bytes.unsafe_to_string b

let encode_request req =
  let fn = "encode_request" in
  match req with
  | Open { session; seed; start } ->
    let b =
      create_frame fn ~opcode:op_open
        (16 + vec_size fn "start position" (-1) start)
    in
    let pos = put_i64 b 6 session in
    let pos = put_i64 b pos (Int64.of_int seed) in
    finish b (put_vec b pos start)
  | Step { session; requests } ->
    let count = Array.length requests in
    check_u16 fn "request count" count;
    let body = ref 10 in
    for i = 0 to count - 1 do
      body := !body + vec_size fn "request" i requests.(i)
    done;
    let b = create_frame fn ~opcode:op_step !body in
    let pos = ref (put_u16 b (put_i64 b 6 session) count) in
    for i = 0 to count - 1 do
      pos := put_vec b !pos requests.(i)
    done;
    finish b !pos
  | Checkpoint { session } ->
    let b = create_frame fn ~opcode:op_checkpoint 8 in
    finish b (put_i64 b 6 session)
  | Close { session } ->
    let b = create_frame fn ~opcode:op_close 8 in
    finish b (put_i64 b 6 session)

let encode_reply reply =
  let fn = "encode_reply" in
  match reply with
  | Opened { session } ->
    let b = create_frame fn ~opcode:op_opened 8 in
    finish b (put_i64 b 6 session)
  | Stepped { session; position; move; service; clamped } ->
    let b =
      create_frame fn ~opcode:op_stepped
        (25 + vec_size fn "position" (-1) position)
    in
    let pos = put_i64 b 6 session in
    let pos = put_u8 b pos (if clamped then 1 else 0) in
    let pos = put_vec b pos position in
    finish b (put_f64 b (put_f64 b pos move) service)
  | Snapshot { session; rounds; clamped_rounds; position; move; service }
  | Closed { session; rounds; clamped_rounds; position; move; service } ->
    check_u32 fn "round count" rounds;
    check_u32 fn "clamp count" clamped_rounds;
    let opcode =
      match reply with Snapshot _ -> op_snapshot | _ -> op_closed
    in
    let b =
      create_frame fn ~opcode (32 + vec_size fn "position" (-1) position)
    in
    let pos = put_i64 b 6 session in
    let pos = put_u32 b (put_u32 b pos rounds) clamped_rounds in
    let pos = put_vec b pos position in
    finish b (put_f64 b (put_f64 b pos move) service)
  | Error { session; code; message } ->
    (* Cut rather than refused, so that every error reply encodes. *)
    let len = Stdlib.min (String.length message) max_u16 in
    let b = create_frame fn ~opcode:op_error (11 + len) in
    let pos = put_i64 b 6 session in
    let pos = put_u16 b (put_u8 b pos (error_code_byte code)) len in
    Bytes.blit_string message 0 b pos len;
    finish b (pos + len)

(* --- decoding --------------------------------------------------------- *)

(* A cursor over the frame itself.  [unframe] has checked that the
   length prefix covers exactly the rest of [data], so the body starts
   at byte 4 and ends with the string.  Every read is bounds-checked
   and failures carry the exact defect. *)
type cursor = { data : string; mutable pos : int }

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let truncated c what n =
  malformed "truncated body: %s needs %d byte(s), %d left" what n
    (String.length c.data - c.pos)

(* A short 1-, 2- or 4-byte field is reported as a byte-at-a-time
   reader reports it, at its first missing byte with none left; the
   error messages are pinned by the tests like the bytes. *)
let short_byte what =
  malformed "truncated body: %s needs 1 byte(s), 0 left" what

let[@inline] u16_at s p =
  (Char.code (String.unsafe_get s p) lsl 8)
  lor Char.code (String.unsafe_get s (p + 1))

(* Step over an [n]-byte field, n <= 4, and return where it starts. *)
let[@inline] field c n what =
  let p = c.pos in
  if p + n > String.length c.data then short_byte what;
  c.pos <- p + n;
  p

let u8 c what = Char.code (String.unsafe_get c.data (field c 1 what))
let u16 c what = u16_at c.data (field c 2 what)

let u32 c what =
  let p = field c 4 what in
  (u16_at c.data p lsl 16) lor u16_at c.data (p + 2)

(* [i64] and [f64] are inlined, so their results are never boxed on
   the way out. *)
let[@inline] i64 c what index =
  let p = c.pos in
  if p + 8 > String.length c.data then truncated c (label what index) 8;
  c.pos <- p + 8;
  let v = string_get64u c.data p in
  if big_endian () then v else swap64 v

let[@inline] f64 c what = Int64.float_of_bits (i64 c what (-1))

let vec ~reject_non_finite c what index =
  if c.pos + 2 > String.length c.data then
    short_byte (label what index ^ " dimension");
  let dim = u16_at c.data c.pos in
  c.pos <- c.pos + 2;
  if dim = 0 then malformed "%s has dimension 0" (label what index);
  let v = Array.create_float dim in
  for i = 0 to dim - 1 do
    let x = Int64.float_of_bits (i64 c what index) in
    if reject_non_finite && not (Float.is_finite x) then
      malformed "non-finite coordinate %d in %s" i (label what index);
    Array.unsafe_set v i x
  done;
  v

let done_ c =
  if c.pos <> String.length c.data then
    malformed "trailing %d byte(s) after frame body"
      (String.length c.data - c.pos)

(* Check the length prefix of exactly one frame; the cursor starts on
   its payload. *)
let unframe s =
  let len = String.length s in
  if len < 4 then
    malformed "truncated length prefix: %d byte(s), need 4" len;
  let n = (u16_at s 0 lsl 16) lor u16_at s 2 in
  if n > max_payload then
    malformed "length prefix %d exceeds max payload %d" n max_payload;
  if len < 4 + n then
    malformed "truncated frame: length prefix says %d, %d byte(s) follow" n
      (len - 4);
  if len > 4 + n then
    malformed "trailing %d byte(s) after frame" (len - 4 - n);
  { data = s; pos = 4 }

let header c =
  let version = u8 c "version tag" in
  if version <> protocol_version then
    malformed "bad version tag 0x%02x (expected 0x%02x)" version
      protocol_version;
  u8 c "opcode"

let decode_request s =
  match
    let c = unframe s in
    let opcode = header c in
    let req =
      if opcode = op_open then begin
        let session = i64 c "session id" (-1) in
        let seed = Int64.to_int (i64 c "seed" (-1)) in
        let start = vec ~reject_non_finite:true c "start position" (-1) in
        Open { session; seed; start }
      end
      else if opcode = op_step then begin
        let session = i64 c "session id" (-1) in
        let count = u16 c "request count" in
        let requests = Array.make count [||] in
        for i = 0 to count - 1 do
          requests.(i) <- vec ~reject_non_finite:true c "request" i
        done;
        Step { session; requests }
      end
      else if opcode = op_checkpoint then
        Checkpoint { session = i64 c "session id" (-1) }
      else if opcode = op_close then
        Close { session = i64 c "session id" (-1) }
      else malformed "unknown request opcode 0x%02x" opcode
    in
    done_ c;
    req
  with
  | req -> Ok req
  | exception Malformed msg -> Error msg

let decode_reply s =
  match
    let c = unframe s in
    let opcode = header c in
    let reply =
      if opcode = op_opened then Opened { session = i64 c "session id" (-1) }
      else if opcode = op_stepped then begin
        let session = i64 c "session id" (-1) in
        let flags = u8 c "flags" in
        if flags land lnot 1 <> 0 then
          malformed "unknown flag bits 0x%02x" flags;
        let position = vec ~reject_non_finite:false c "position" (-1) in
        let move = f64 c "movement cost" in
        let service = f64 c "service cost" in
        Stepped { session; position; move; service; clamped = flags land 1 = 1 }
      end
      else if opcode = op_snapshot || opcode = op_closed then begin
        let session = i64 c "session id" (-1) in
        let rounds = u32 c "round count" in
        let clamped_rounds = u32 c "clamp count" in
        let position = vec ~reject_non_finite:false c "position" (-1) in
        let move = f64 c "movement cost" in
        let service = f64 c "service cost" in
        if opcode = op_snapshot then
          Snapshot { session; rounds; clamped_rounds; position; move; service }
        else Closed { session; rounds; clamped_rounds; position; move; service }
      end
      else if opcode = op_error then begin
        let session = i64 c "session id" (-1) in
        let code_byte = u8 c "error code" in
        let code =
          match error_code_of_byte code_byte with
          | Some code -> code
          | None -> malformed "unknown error code 0x%02x" code_byte
        in
        let len = u16 c "message length" in
        if c.pos + len > String.length c.data then truncated c "message" len;
        let message = String.sub c.data c.pos len in
        c.pos <- c.pos + len;
        Error { session; code; message }
      end
      else malformed "unknown reply opcode 0x%02x" opcode
    in
    done_ c;
    reply
  with
  | reply -> Ok reply
  | exception Malformed msg -> Error msg
