(* Tests for the serve stack: the wire protocol (committed golden
   fixtures plus bit-level qcheck round-trips), malformed-frame
   rejection with precise errors that never kill a shard, the sharded
   daemon's ordering/backpressure/fault contracts, the open-world
   schedule's jobs-invariant determinism, and the driver's
   serve ≡ engine identity wall. *)

module Vec = Geometry.Vec
module Config = Mobile_server.Config
module Engine = Mobile_server.Engine
module Frame = Serve.Frame
module Daemon = Serve.Daemon
module Driver = Serve.Driver
module Open_world = Workloads.Open_world

let bits = Int64.bits_of_float

let hex_of s =
  let b = Buffer.create (String.length s * 2) in
  String.iter
    (fun ch -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code ch)))
    s;
  Buffer.contents b

let of_hex h =
  let n = String.length h in
  if n mod 2 <> 0 then Alcotest.failf "odd hex length in %s" h;
  String.init (n / 2) (fun i ->
      Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

(* --- golden fixtures -------------------------------------------------- *)

(* The values gen_golden.exe frames prints (Experiments.Golden); the
   committed file pins their exact bytes in both directions. *)
let fixtures = Experiments.Golden.frame_fixtures

let eq_vec a b =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> bits x = bits y) a b

let eq_request a b =
  match (a, b) with
  | ( Frame.Open { session = s1; seed = d1; start = v1 },
      Frame.Open { session = s2; seed = d2; start = v2 } ) ->
    s1 = s2 && d1 = d2 && eq_vec v1 v2
  | ( Frame.Step { session = s1; requests = r1 },
      Frame.Step { session = s2; requests = r2 } ) ->
    s1 = s2
    && Array.length r1 = Array.length r2
    && Array.for_all2 eq_vec r1 r2
  | Frame.Checkpoint { session = s1 }, Frame.Checkpoint { session = s2 }
  | Frame.Close { session = s1 }, Frame.Close { session = s2 } -> s1 = s2
  | _ -> false

let eq_reply a b =
  match (a, b) with
  | Frame.Opened { session = s1 }, Frame.Opened { session = s2 } -> s1 = s2
  | ( Frame.Stepped
        { session = s1; position = p1; move = m1; service = v1; clamped = c1 },
      Frame.Stepped
        { session = s2; position = p2; move = m2; service = v2; clamped = c2 }
    ) ->
    s1 = s2 && eq_vec p1 p2 && bits m1 = bits m2 && bits v1 = bits v2
    && c1 = c2
  | ( Frame.Snapshot
        {
          session = s1;
          rounds = r1;
          clamped_rounds = k1;
          position = p1;
          move = m1;
          service = v1;
        },
      Frame.Snapshot
        {
          session = s2;
          rounds = r2;
          clamped_rounds = k2;
          position = p2;
          move = m2;
          service = v2;
        } )
  | ( Frame.Closed
        {
          session = s1;
          rounds = r1;
          clamped_rounds = k1;
          position = p1;
          move = m1;
          service = v1;
        },
      Frame.Closed
        {
          session = s2;
          rounds = r2;
          clamped_rounds = k2;
          position = p2;
          move = m2;
          service = v2;
        } ) ->
    s1 = s2 && r1 = r2 && k1 = k2 && eq_vec p1 p2 && bits m1 = bits m2
    && bits v1 = bits v2
  | ( Frame.Error { session = s1; code = c1; message = m1 },
      Frame.Error { session = s2; code = c2; message = m2 } ) ->
    s1 = s2 && c1 = c2 && m1 = m2
  | _ -> false

let read_golden () =
  let ic = open_in_bin "golden/frames_v1.hex" in
  let rec lines acc =
    match input_line ic with
    | line ->
      let acc =
        if line = "" || line.[0] = '#' then acc
        else
          match String.index_opt line ' ' with
          | Some i ->
            ( String.sub line 0 i,
              String.sub line (i + 1) (String.length line - i - 1) )
            :: acc
          | None -> Alcotest.failf "malformed fixture line: %s" line
      in
      lines acc
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  lines []

let golden_pins () =
  let table = read_golden () in
  Alcotest.(check (list string))
    "fixture names (regenerate with gen_golden.exe frames on a version \
     bump)"
    (List.map fst fixtures) (List.map fst table);
  List.iter2
    (fun (name, value) (_, hx) ->
      let bytes = of_hex hx in
      let encoded =
        match value with
        | `Req r -> Frame.encode_request r
        | `Rep r -> Frame.encode_reply r
      in
      Alcotest.(check string)
        (name ^ ": encode pins the committed bytes")
        hx (hex_of encoded);
      (match value with
       | `Req r ->
         (match Frame.decode_request bytes with
          | Ok r' ->
            if not (eq_request r r') then
              Alcotest.failf "%s: decode disagrees with the fixture value" name
          | Error e -> Alcotest.failf "%s: fixture failed to decode: %s" name e)
       | `Rep r ->
         (match Frame.decode_reply bytes with
          | Ok r' ->
            if not (eq_reply r r') then
              Alcotest.failf "%s: decode disagrees with the fixture value" name
          | Error e -> Alcotest.failf "%s: fixture failed to decode: %s" name e)))
    fixtures table

(* --- qcheck round-trips ----------------------------------------------- *)

let finite x = if Float.is_finite x then x else 0.0
let coord_gen = QCheck.Gen.map finite QCheck.Gen.float
let session_gen = QCheck.Gen.(map Int64.of_int int)

let vec_gen =
  QCheck.Gen.(map Array.of_list (list_size (int_range 1 4) coord_gen))

let request_gen =
  let open QCheck.Gen in
  oneof
    [
      map3
        (fun session seed start -> Frame.Open { session; seed; start })
        session_gen int vec_gen;
      map2
        (fun session requests -> Frame.Step { session; requests })
        session_gen
        (map Array.of_list (list_size (int_range 0 3) vec_gen));
      map (fun session -> Frame.Checkpoint { session }) session_gen;
      map (fun session -> Frame.Close { session }) session_gen;
    ]

let reply_gen =
  let open QCheck.Gen in
  let code_gen =
    oneofl
      [ Frame.Bad_frame; Frame.Unknown_session; Frame.Duplicate_session;
        Frame.Bad_request ]
  in
  let message_gen = string_size ~gen:printable (int_range 0 40) in
  oneof
    [
      map (fun session -> Frame.Opened { session }) session_gen;
      map3
        (fun session (position, clamped) (move, service) ->
          Frame.Stepped { session; position; move; service; clamped })
        session_gen (pair vec_gen bool) (pair float float);
      map3
        (fun session (rounds, clamped_rounds) (position, (move, service)) ->
          Frame.Snapshot
            { session; rounds; clamped_rounds; position; move; service })
        session_gen (pair small_nat small_nat)
        (pair vec_gen (pair float float));
      map3
        (fun session (rounds, clamped_rounds) (position, (move, service)) ->
          Frame.Closed
            { session; rounds; clamped_rounds; position; move; service })
        session_gen (pair small_nat small_nat)
        (pair vec_gen (pair float float));
      map3
        (fun session code message -> Frame.Error { session; code; message })
        session_gen code_gen message_gen;
    ]

let qcheck_request_roundtrip =
  QCheck.Test.make ~count:500 ~name:"request encode/decode is bit-lossless"
    (QCheck.make ~print:(fun r -> hex_of (Frame.encode_request r)) request_gen)
    (fun r ->
      let bytes = Frame.encode_request r in
      match Frame.decode_request bytes with
      | Ok r' -> Frame.encode_request r' = bytes
      | Error _ -> false)

let qcheck_reply_roundtrip =
  QCheck.Test.make ~count:500 ~name:"reply encode/decode is bit-lossless"
    (QCheck.make ~print:(fun r -> hex_of (Frame.encode_reply r)) reply_gen)
    (fun r ->
      let bytes = Frame.encode_reply r in
      match Frame.decode_reply bytes with
      | Ok r' -> Frame.encode_reply r' = bytes
      | Error _ -> false)

(* --- malformed frames ------------------------------------------------- *)

let patch s i ch =
  let b = Bytes.of_string s in
  Bytes.set b i ch;
  Bytes.to_string b

let mk_frame payload =
  let n = String.length payload in
  let b = Buffer.create (n + 4) in
  List.iter
    (fun shift -> Buffer.add_char b (Char.chr ((n lsr shift) land 0xFF)))
    [ 24; 16; 8; 0 ];
  Buffer.add_string b payload;
  Buffer.contents b

let expect_request_error what input expected =
  match Frame.decode_request input with
  | Ok _ -> Alcotest.failf "%s: decoded instead of being rejected" what
  | Error msg -> Alcotest.(check string) what expected msg

let expect_reply_error what input expected =
  match Frame.decode_reply input with
  | Ok _ -> Alcotest.failf "%s: decoded instead of being rejected" what
  | Error msg -> Alcotest.(check string) what expected msg

let malformed_rejection () =
  let checkpoint = Frame.encode_request (Frame.Checkpoint { session = 99L }) in
  expect_request_error "empty input" ""
    "truncated length prefix: 0 byte(s), need 4";
  expect_request_error "two-byte input" "\x00\x00"
    "truncated length prefix: 2 byte(s), need 4";
  expect_request_error "oversized prefix" "\xff\xff\xff\xff"
    "length prefix 4294967295 exceeds max payload 16777216";
  expect_request_error "truncated frame" ("\x00\x00\x00\x0a" ^ "abc")
    "truncated frame: length prefix says 10, 3 byte(s) follow";
  expect_request_error "trailing bytes" (checkpoint ^ "!")
    "trailing 1 byte(s) after frame";
  expect_request_error "bad version tag" (patch checkpoint 4 '\x7f')
    "bad version tag 0x7f (expected 0x01)";
  expect_request_error "unknown request opcode" (patch checkpoint 5 '\x7e')
    "unknown request opcode 0x7e";
  expect_request_error "non-finite start coordinate"
    (Frame.encode_request
       (Frame.Open { session = 1L; seed = 0; start = [| Float.nan |] }))
    "non-finite coordinate 0 in start position";
  expect_request_error "non-finite request coordinate"
    (Frame.encode_request
       (Frame.Step
          { session = 1L; requests = [| [| 0.0 |]; [| 1.0; Float.infinity |] |] }))
    "non-finite coordinate 1 in request 1";
  expect_request_error "zero-dimensional start"
    (Frame.encode_request (Frame.Open { session = 1L; seed = 0; start = [||] }))
    "start position has dimension 0";
  expect_request_error "truncated body"
    (mk_frame "\x01\x03\x00\x00\x00\x00")
    "truncated body: session id needs 8 byte(s), 4 left";
  expect_request_error "trailing body bytes"
    (mk_frame ("\x01\x04" ^ String.make 8 '\x00' ^ "\x00"))
    "trailing 1 byte(s) after frame body";
  let opened = Frame.encode_reply (Frame.Opened { session = 1L }) in
  expect_reply_error "unknown reply opcode" (patch opened 5 '\x05')
    "unknown reply opcode 0x05";
  let stepped =
    Frame.encode_reply
      (Frame.Stepped
         {
           session = 1L;
           position = [| 0.0 |];
           move = 0.0;
           service = 0.0;
           clamped = false;
         })
  in
  expect_reply_error "unknown flag bits" (patch stepped 14 '\x02')
    "unknown flag bits 0x02";
  expect_reply_error "unknown error code"
    (mk_frame ("\x01\xff" ^ String.make 8 '\x00' ^ "\x09\x00\x00"))
    "unknown error code 0x09"

(* --- Frame vs a verbatim copy of the Buffer-based codec ---------------- *)

(* [Frame]'s encoder and decoder as they stood before the in-place
   rewrite: three [Buffer]s per encode, a [String.sub] of the payload
   per decode, byte-at-a-time integer reads, eagerly built field labels.
   Kept verbatim (the types are [Frame]'s own) so the rewrite is checked
   against the bytes and messages it replaced, not against itself. *)
module Buffer_ref = struct
  open Frame

  let protocol_version = 1
  let max_payload = 16 * 1024 * 1024

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

  (* --- encoding --------------------------------------------------------- *)

  let add_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

  let add_u16 buf v =
    add_u8 buf (v lsr 8);
    add_u8 buf v

  let add_u32 buf v =
    add_u8 buf (v lsr 24);
    add_u8 buf (v lsr 16);
    add_u8 buf (v lsr 8);
    add_u8 buf v

  let add_i64 buf v =
    for shift = 7 downto 0 do
      add_u8 buf (Int64.to_int (Int64.shift_right_logical v (shift * 8)))
    done

  let add_f64 buf x = add_i64 buf (Int64.bits_of_float x)

  let add_vec buf v =
    add_u16 buf (Array.length v);
    Array.iter (add_f64 buf) v

  let frame payload =
    let n = String.length payload in
    let buf = Buffer.create (n + 4) in
    add_u32 buf n;
    Buffer.add_string buf payload;
    Buffer.contents buf

  let payload ~opcode body =
    let buf = Buffer.create (String.length body + 2) in
    add_u8 buf protocol_version;
    add_u8 buf opcode;
    Buffer.add_string buf body;
    Buffer.contents buf

  let body_of f =
    let buf = Buffer.create 64 in
    f buf;
    Buffer.contents buf

  let encode_request req =
    let opcode, body =
      match req with
      | Open { session; seed; start } ->
        ( op_open,
          body_of (fun b ->
              add_i64 b session;
              add_i64 b (Int64.of_int seed);
              add_vec b start) )
      | Step { session; requests } ->
        ( op_step,
          body_of (fun b ->
              add_i64 b session;
              add_u16 b (Array.length requests);
              Array.iter (add_vec b) requests) )
      | Checkpoint { session } ->
        (op_checkpoint, body_of (fun b -> add_i64 b session))
      | Close { session } -> (op_close, body_of (fun b -> add_i64 b session))
    in
    frame (payload ~opcode body)

  let encode_snapshotish b ~session ~rounds ~clamped_rounds ~position ~move
      ~service =
    add_i64 b session;
    add_u32 b rounds;
    add_u32 b clamped_rounds;
    add_vec b position;
    add_f64 b move;
    add_f64 b service

  let encode_reply reply =
    let opcode, body =
      match reply with
      | Opened { session } -> (op_opened, body_of (fun b -> add_i64 b session))
      | Stepped { session; position; move; service; clamped } ->
        ( op_stepped,
          body_of (fun b ->
              add_i64 b session;
              add_u8 b (if clamped then 1 else 0);
              add_vec b position;
              add_f64 b move;
              add_f64 b service) )
      | Snapshot { session; rounds; clamped_rounds; position; move; service } ->
        ( op_snapshot,
          body_of
            (encode_snapshotish ~session ~rounds ~clamped_rounds ~position
               ~move ~service) )
      | Closed { session; rounds; clamped_rounds; position; move; service } ->
        ( op_closed,
          body_of
            (encode_snapshotish ~session ~rounds ~clamped_rounds ~position
               ~move ~service) )
      | Error { session; code; message } ->
        ( op_error,
          body_of (fun b ->
              add_i64 b session;
              add_u8 b (error_code_byte code);
              add_u16 b (String.length message);
              Buffer.add_string b message) )
    in
    frame (payload ~opcode body)

  (* --- decoding --------------------------------------------------------- *)

  (* A tiny cursor over the payload bytes; every read is bounds-checked
     and failures carry the exact defect. *)
  type cursor = { data : string; mutable pos : int }

  exception Malformed of string

  let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

  let need c n what =
    if c.pos + n > String.length c.data then
      malformed "truncated body: %s needs %d byte(s), %d left" what n
        (String.length c.data - c.pos)

  let u8 c what =
    need c 1 what;
    let v = Char.code c.data.[c.pos] in
    c.pos <- c.pos + 1;
    v

  let u16 c what =
    let hi = u8 c what in
    let lo = u8 c what in
    (hi lsl 8) lor lo

  let u32 c what =
    let hi = u16 c what in
    let lo = u16 c what in
    (hi lsl 16) lor lo

  let i64 c what =
    need c 8 what;
    let v = ref 0L in
    for _ = 1 to 8 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (u8 c what))
    done;
    !v

  let f64 c what = Int64.float_of_bits (i64 c what)

  let vec ?(reject_non_finite = false) c what =
    let dim = u16 c (what ^ " dimension") in
    if dim = 0 then malformed "%s has dimension 0" what;
    Array.init dim (fun i ->
        let x = f64 c what in
        if reject_non_finite && not (Float.is_finite x) then
          malformed "non-finite coordinate %d in %s" i what;
        x)

  let done_ c =
    if c.pos <> String.length c.data then
      malformed "trailing %d byte(s) after frame body"
        (String.length c.data - c.pos)

  (* Strip the length prefix of exactly one frame and return its payload. *)
  let unframe s =
    let len = String.length s in
    if len < 4 then
      malformed "truncated length prefix: %d byte(s), need 4" len;
    let n =
      (Char.code s.[0] lsl 24)
      lor (Char.code s.[1] lsl 16)
      lor (Char.code s.[2] lsl 8)
      lor Char.code s.[3]
    in
    if n > max_payload then
      malformed "length prefix %d exceeds max payload %d" n max_payload;
    if len < 4 + n then
      malformed "truncated frame: length prefix says %d, %d byte(s) follow" n
        (len - 4);
    if len > 4 + n then
      malformed "trailing %d byte(s) after frame" (len - 4 - n);
    String.sub s 4 n

  let header c =
    let version = u8 c "version tag" in
    if version <> protocol_version then
      malformed "bad version tag 0x%02x (expected 0x%02x)" version
        protocol_version;
    u8 c "opcode"

  let decode_request s =
    match
      let c = { data = unframe s; pos = 0 } in
      let opcode = header c in
      let req =
        if opcode = op_open then begin
          let session = i64 c "session id" in
          let seed = Int64.to_int (i64 c "seed") in
          let start = vec ~reject_non_finite:true c "start position" in
          Open { session; seed; start }
        end
        else if opcode = op_step then begin
          let session = i64 c "session id" in
          let count = u16 c "request count" in
          let requests =
            Array.init count (fun i ->
                vec ~reject_non_finite:true c
                  (Printf.sprintf "request %d" i))
          in
          Step { session; requests }
        end
        else if opcode = op_checkpoint then
          Checkpoint { session = i64 c "session id" }
        else if opcode = op_close then Close { session = i64 c "session id" }
        else malformed "unknown request opcode 0x%02x" opcode
      in
      done_ c;
      req
    with
    | req -> Ok req
    | exception Malformed msg -> Error msg

  let decode_reply s =
    match
      let c = { data = unframe s; pos = 0 } in
      let opcode = header c in
      let snapshotish mk =
        let session = i64 c "session id" in
        let rounds = u32 c "round count" in
        let clamped_rounds = u32 c "clamp count" in
        let position = vec c "position" in
        let move = f64 c "movement cost" in
        let service = f64 c "service cost" in
        mk ~session ~rounds ~clamped_rounds ~position ~move ~service
      in
      let reply =
        if opcode = op_opened then Opened { session = i64 c "session id" }
        else if opcode = op_stepped then begin
          let session = i64 c "session id" in
          let flags = u8 c "flags" in
          if flags land lnot 1 <> 0 then
            malformed "unknown flag bits 0x%02x" flags;
          let position = vec c "position" in
          let move = f64 c "movement cost" in
          let service = f64 c "service cost" in
          Stepped { session; position; move; service; clamped = flags land 1 = 1 }
        end
        else if opcode = op_snapshot then
          snapshotish (fun ~session ~rounds ~clamped_rounds ~position ~move
                           ~service ->
              Snapshot { session; rounds; clamped_rounds; position; move; service })
        else if opcode = op_closed then
          snapshotish (fun ~session ~rounds ~clamped_rounds ~position ~move
                           ~service ->
              Closed { session; rounds; clamped_rounds; position; move; service })
        else if opcode = op_error then begin
          let session = i64 c "session id" in
          let code_byte = u8 c "error code" in
          let code =
            match error_code_of_byte code_byte with
            | Some code -> code
            | None -> malformed "unknown error code 0x%02x" code_byte
          in
          let len = u16 c "message length" in
          need c len "message";
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
end

(* Every coordinate class the codec must carry bit for bit: ordinary
   values, signed zeros, infinities, NaN (quiet and with a payload),
   subnormals, the extremes, and arbitrary bit patterns. *)
let wire_coord_gen =
  let open QCheck.Gen in
  frequency
    [
      (4, float_range (-1e3) 1e3);
      ( 2,
        oneofl
          [ 0.0; -0.0; infinity; neg_infinity; nan; -.nan;
            Int64.float_of_bits 0x7FF0_0000_0000_0001L; 5e-324; -5e-324;
            2.2250738585072009e-308; min_float; max_float; -.max_float ] );
      (2, map Int64.float_of_bits ui64);
    ]

let wire_vec_gen =
  QCheck.Gen.(map Array.of_list (list_size (int_range 1 4) wire_coord_gen))

let wire_session_gen =
  QCheck.Gen.(oneof [ map Int64.of_int small_signed_int; ui64 ])

let u32_gen =
  QCheck.Gen.(oneof [ small_nat; int_range 0 0xFFFF_FFFF; return 0xFFFF_FFFF ])

let wire_request_gen =
  let open QCheck.Gen in
  oneof
    [
      map3
        (fun session seed start -> Frame.Open { session; seed; start })
        wire_session_gen int wire_vec_gen;
      map2
        (fun session requests -> Frame.Step { session; requests })
        wire_session_gen
        (map Array.of_list (list_size (int_range 0 6) wire_vec_gen));
      map (fun session -> Frame.Checkpoint { session }) wire_session_gen;
      map (fun session -> Frame.Close { session }) wire_session_gen;
    ]

let wire_reply_gen =
  let open QCheck.Gen in
  let code_gen =
    oneofl
      [ Frame.Bad_frame; Frame.Unknown_session; Frame.Duplicate_session;
        Frame.Bad_request ]
  in
  let snapshotish mk =
    map3
      (fun session (rounds, clamped_rounds) (position, (move, service)) ->
        mk ~session ~rounds ~clamped_rounds ~position ~move ~service)
      wire_session_gen (pair u32_gen u32_gen)
      (pair wire_vec_gen (pair wire_coord_gen wire_coord_gen))
  in
  oneof
    [
      map (fun session -> Frame.Opened { session }) wire_session_gen;
      map3
        (fun session (position, clamped) (move, service) ->
          Frame.Stepped { session; position; move; service; clamped })
        wire_session_gen (pair wire_vec_gen bool)
        (pair wire_coord_gen wire_coord_gen);
      snapshotish (fun ~session ~rounds ~clamped_rounds ~position ~move
                       ~service ->
          Frame.Snapshot
            { session; rounds; clamped_rounds; position; move; service });
      snapshotish (fun ~session ~rounds ~clamped_rounds ~position ~move
                       ~service ->
          Frame.Closed
            { session; rounds; clamped_rounds; position; move; service });
      map3
        (fun session code message -> Frame.Error { session; code; message })
        wire_session_gen code_gen
        (string_size ~gen:char (int_range 0 40));
    ]

(* A valid frame of either direction plus the damage to do to it:
   byte mutations (position, value) and a tail of extra bytes. *)
let codec_case_gen =
  let open QCheck.Gen in
  let* value =
    oneof
      [ map (fun r -> `Req r) wire_request_gen;
        map (fun r -> `Rep r) wire_reply_gen ]
  in
  let* mutations = list_size (int_range 1 3) (pair nat (int_bound 255)) in
  let* tail = string_size ~gen:char (int_range 1 3) in
  return (value, mutations, tail)

let print_codec_case (value, mutations, tail) =
  Printf.sprintf "%s mutations=[%s] tail=%s"
    (match value with
     | `Req r -> "req " ^ hex_of (Buffer_ref.encode_request r)
     | `Rep r -> "rep " ^ hex_of (Buffer_ref.encode_reply r))
    (String.concat "; "
       (List.map (fun (i, v) -> Printf.sprintf "%d:%02x" i v) mutations))
    (hex_of tail)

(* Same outcome: both decoded, to values the reference encoder writes
   as the same bytes, or both rejected with the same message. *)
let same_outcome encode a b =
  match (a, b) with
  | Ok x, Ok y -> String.equal (encode x) (encode y)
  | Error m1, Error m2 -> String.equal m1 m2
  | _ -> false

let qcheck_codec_matches_reference =
  QCheck.Test.make ~count:400
    ~name:"Frame = Buffer-based reference codec"
    (QCheck.make ~print:print_codec_case codec_case_gen)
    (fun (value, mutations, tail) ->
      let frame, ref_frame =
        match value with
        | `Req r -> (Frame.encode_request r, Buffer_ref.encode_request r)
        | `Rep r -> (Frame.encode_reply r, Buffer_ref.encode_reply r)
      in
      let len = String.length frame in
      let payload = String.sub ref_frame 4 (len - 4) in
      let inputs =
        (frame :: (frame ^ tail) :: mk_frame (payload ^ tail)
         :: List.init len (fun k -> String.sub frame 0 k))
        @ List.init (len - 4) (fun m -> mk_frame (String.sub payload 0 m))
        @ [ List.fold_left
              (fun s (i, v) -> patch s (i mod len) (Char.chr v))
              frame mutations ]
      in
      String.equal frame ref_frame
      && List.for_all
           (fun s ->
             same_outcome Buffer_ref.encode_request (Frame.decode_request s)
               (Buffer_ref.decode_request s)
             && same_outcome Buffer_ref.encode_reply (Frame.decode_reply s)
                  (Buffer_ref.decode_reply s))
           inputs)

(* --- encoder range rules ------------------------------------------------ *)

(* An encoder refuses what its frame could not carry, so it never
   writes a frame the decoder refuses or reads back differently. *)
let expect_invalid what expected f =
  Alcotest.check_raises what (Invalid_argument expected) (fun () ->
      ignore (f ()))

let decode_step what frame =
  match Frame.decode_request frame with
  | Ok (Frame.Step { requests; _ }) -> requests
  | Ok _ -> Alcotest.failf "%s: decoded to another request" what
  | Error e -> Alcotest.failf "%s: rejected: %s" what e

(* A u16 count would wrap: 65,536 requests encoded as 0. *)
let encode_step_count_range () =
  expect_invalid "65,536 requests"
    "Serve.Frame.encode_request: request count 65536 exceeds 65535"
    (fun () ->
      Frame.encode_request
        (Frame.Step { session = 1L; requests = Array.make 65_536 [| 0.0 |] }));
  let requests = Array.make 65_535 [| 0.5 |] in
  Alcotest.(check int) "65,535 requests round-trip" 65_535
    (Array.length
       (decode_step "65,535 requests"
          (Frame.encode_request (Frame.Step { session = 1L; requests }))))

(* A u16 dimension would wrap: 65,537 coordinates encoded as 1. *)
let encode_dimension_range () =
  expect_invalid "start of dimension 65,537"
    "Serve.Frame.encode_request: start position dimension 65537 exceeds 65535"
    (fun () ->
      Frame.encode_request
        (Frame.Open
           { session = 1L; seed = 0; start = Array.make 65_537 0.0 }));
  expect_invalid "second request of dimension 65,536"
    "Serve.Frame.encode_request: request 1 dimension 65536 exceeds 65535"
    (fun () ->
      Frame.encode_request
        (Frame.Step
           { session = 1L;
             requests = [| [| 0.0 |]; Array.make 65_536 0.0 |] }));
  expect_invalid "position of dimension 65,536"
    "Serve.Frame.encode_reply: position dimension 65536 exceeds 65535"
    (fun () ->
      Frame.encode_reply
        (Frame.Stepped
           { session = 1L; position = Array.make 65_536 0.0; move = 0.0;
             service = 0.0; clamped = false }));
  match
    Frame.decode_request
      (Frame.encode_request
         (Frame.Open { session = 1L; seed = 0; start = Array.make 65_535 0.25 }))
  with
  | Ok (Frame.Open { start; _ }) ->
    Alcotest.(check int) "dimension 65,535 round-trips" 65_535
      (Array.length start)
  | _ -> Alcotest.fail "dimension 65,535 did not round-trip"

(* 65,535 requests of dimension 32 would make a 16.9 MB payload that
   [decode_request] refuses.  A payload of exactly [max_payload] bytes
   (12 header and count bytes, then 65,030 vectors: 64,963 of dimension
   32 and 67 of dimension 31) is the largest one either side takes. *)
let encode_payload_range () =
  expect_invalid "65,535 requests of dimension 32"
    "Serve.Frame.encode_request: payload of 16908042 byte(s) exceeds max \
     payload 16777216"
    (fun () ->
      Frame.encode_request
        (Frame.Step
           { session = 1L; requests = Array.make 65_535 (Array.make 32 1.0) }));
  let v31 = Array.make 31 1.0 and v32 = Array.make 32 1.0 in
  let requests = Array.init 65_030 (fun i -> if i < 67 then v31 else v32) in
  let frame = Frame.encode_request (Frame.Step { session = 1L; requests }) in
  Alcotest.(check int) "payload at the cap" Frame.max_payload
    (String.length frame - 4);
  Alcotest.(check int) "the capped frame decodes" 65_030
    (Array.length (decode_step "payload at the cap" frame));
  requests.(0) <- v32;
  expect_invalid "one coordinate over the cap"
    "Serve.Frame.encode_request: payload of 16777224 byte(s) exceeds max \
     payload 16777216"
    (fun () -> Frame.encode_request (Frame.Step { session = 1L; requests }))

(* A u16 message length would wrap; the message is cut instead, so a
   daemon's error reply always encodes and decodes. *)
let encode_error_message_cut () =
  let message = String.init 70_000 (fun i -> Char.chr (32 + (i mod 95))) in
  match
    Frame.decode_reply
      (Frame.encode_reply
         (Frame.Error { session = 4L; code = Frame.Bad_request; message }))
  with
  | Ok (Frame.Error { session = 4L; code = Frame.Bad_request; message = cut })
    ->
    Alcotest.(check string) "the first 65,535 bytes travel"
      (String.sub message 0 65_535) cut
  | Ok _ -> Alcotest.fail "decoded to another reply"
  | Error e -> Alcotest.failf "70,000-byte message: reply rejected: %s" e

(* A u32 count would wrap: 2^32 + 5 rounds encoded as 5. *)
let encode_u32_range () =
  let snapshot rounds clamped_rounds =
    Frame.Snapshot
      { session = 1L; rounds; clamped_rounds; position = [| 0.0 |];
        move = 0.0; service = 0.0 }
  in
  expect_invalid "2^32 + 5 rounds"
    "Serve.Frame.encode_reply: round count 4294967301 outside [0, 4294967295]"
    (fun () -> Frame.encode_reply (snapshot ((1 lsl 32) + 5) 0));
  expect_invalid "negative clamp count"
    "Serve.Frame.encode_reply: clamp count -1 outside [0, 4294967295]"
    (fun () ->
      Frame.encode_reply
        (Frame.Closed
           { session = 1L; rounds = 0; clamped_rounds = -1;
             position = [| 0.0 |]; move = 0.0; service = 0.0 }));
  match Frame.decode_reply (Frame.encode_reply (snapshot 0xFFFF_FFFF 7)) with
  | Ok (Frame.Snapshot { rounds; clamped_rounds; _ }) ->
    Alcotest.(check (pair int int)) "u32 extremes round-trip"
      (0xFFFF_FFFF, 7) (rounds, clamped_rounds)
  | _ -> Alcotest.fail "u32 extremes did not round-trip"

(* --- daemon ----------------------------------------------------------- *)

let config = Config.make ~d_factor:2.0 ~move_limit:1.0 ~delta:0.5 ()

let with_daemon ?shards ?jobs ?queue_capacity f =
  let d = Daemon.create ?shards ?jobs ?queue_capacity ~config () in
  Fun.protect ~finally:(fun () -> Daemon.shutdown d) (fun () -> f d)

let get_reply d frame =
  match Frame.decode_reply (Daemon.call d frame) with
  | Ok r -> r
  | Error e -> Alcotest.failf "daemon produced an undecodable reply: %s" e

let open_frame id seed =
  Frame.encode_request (Frame.Open { session = id; seed; start = [| 0.0 |] })

let step_frame id x =
  Frame.encode_request (Frame.Step { session = id; requests = [| [| x |] |] })

let checkpoint_frame id =
  Frame.encode_request (Frame.Checkpoint { session = id })

let close_frame id = Frame.encode_request (Frame.Close { session = id })

let make_mirror seed =
  Engine.Session.create ~rng:(Daemon.session_rng ~seed) config
    Mobile_server.Mtc.algorithm ~start:(Vec.make1 0.0)

let check_stepped what reply (record : Engine.step_record) =
  match reply with
  | Frame.Stepped { position; move; service; clamped; _ } ->
    if not (eq_vec position record.Engine.position) then
      Alcotest.failf "%s: served position diverges from the engine" what;
    Alcotest.(check int64) (what ^ ": move bits")
      (bits record.Engine.cost.Mobile_server.Cost.move) (bits move);
    Alcotest.(check int64) (what ^ ": service bits")
      (bits record.Engine.cost.Mobile_server.Cost.service) (bits service);
    Alcotest.(check bool) (what ^ ": clamped") record.Engine.clamped clamped
  | other ->
    Alcotest.failf "%s: expected Stepped, got %s" what
      (hex_of (Frame.encode_reply other))

let check_snapshotish what ~rounds ~clamped_rounds ~position ~move ~service
    mirror =
  Alcotest.(check int) (what ^ ": rounds") (Engine.Session.rounds mirror) rounds;
  Alcotest.(check int) (what ^ ": clamped rounds")
    (Engine.Session.clamped_count mirror) clamped_rounds;
  if not (eq_vec position (Engine.Session.position mirror)) then
    Alcotest.failf "%s: snapshot position diverges from the engine" what;
  let cost = Engine.Session.cost mirror in
  Alcotest.(check int64) (what ^ ": move bits")
    (bits cost.Mobile_server.Cost.move) (bits move);
  Alcotest.(check int64) (what ^ ": service bits")
    (bits cost.Mobile_server.Cost.service) (bits service)

let expect_error what reply code =
  match reply with
  | Frame.Error { code = c; message; _ } ->
    Alcotest.(check string) (what ^ ": error code")
      (Frame.error_code_to_string code)
      (Frame.error_code_to_string c);
    Alcotest.(check bool) (what ^ ": message non-empty") true (message <> "")
  | other ->
    Alcotest.failf "%s: expected an error reply, got %s" what
      (hex_of (Frame.encode_reply other))

let daemon_serves_and_survives () =
  with_daemon ~shards:3 ~jobs:2 @@ fun d ->
  (* Hostile frames earn Error Bad_frame replies with the decoder's
     exact message — and nothing else. *)
  (match get_reply d "\x00\x00" with
   | Frame.Error { session = 0L; code = Frame.Bad_frame; message } ->
     Alcotest.(check string) "truncated frame message"
       "truncated length prefix: 2 byte(s), need 4" message
   | _ -> Alcotest.fail "truncated frame: expected Error Bad_frame");
  let checkpoint = checkpoint_frame 99L in
  (match get_reply d (patch checkpoint 4 '\x7f') with
   | Frame.Error { code = Frame.Bad_frame; message; _ } ->
     Alcotest.(check string) "bad version message"
       "bad version tag 0x7f (expected 0x01)" message
   | _ -> Alcotest.fail "bad version: expected Error Bad_frame");
  (match
     get_reply d
       (Frame.encode_request
          (Frame.Open { session = 1L; seed = 0; start = [| Float.nan |] }))
   with
   | Frame.Error { code = Frame.Bad_frame; message; _ } ->
     Alcotest.(check string) "non-finite message"
       "non-finite coordinate 0 in start position" message
   | _ -> Alcotest.fail "non-finite open: expected Error Bad_frame");
  (* The shard is alive and well: a real session serves normally. *)
  let seed = 42 in
  let mirror = make_mirror seed in
  (match get_reply d (open_frame 1L seed) with
   | Frame.Opened { session = 1L } -> ()
   | _ -> Alcotest.fail "open: expected Opened");
  expect_error "duplicate open" (get_reply d (open_frame 1L seed))
    Frame.Duplicate_session;
  expect_error "step of unknown session" (get_reply d (step_frame 2L 0.0))
    Frame.Unknown_session;
  check_stepped "first step" (get_reply d (step_frame 1L 0.7))
    (Engine.Session.step mirror [| Vec.make1 0.7 |]);
  (* A structurally valid round the engine rejects: Bad_request, and
     the session is untouched — the next good round still matches. *)
  (match
     get_reply d
       (Frame.encode_request
          (Frame.Step { session = 1L; requests = [| [| 1.0; 2.0 |] |] }))
   with
   | Frame.Error { code = Frame.Bad_request; message; _ } ->
     Alcotest.(check string) "bad request carries the engine's message"
       "Engine.Session.step: request dimension mismatch" message
   | _ -> Alcotest.fail "dimension mismatch: expected Error Bad_request");
  check_stepped "step after rejected round" (get_reply d (step_frame 1L (-0.3)))
    (Engine.Session.step mirror [| Vec.make1 (-0.3) |]);
  (match get_reply d (checkpoint_frame 1L) with
   | Frame.Snapshot { rounds; clamped_rounds; position; move; service; _ } ->
     check_snapshotish "checkpoint" ~rounds ~clamped_rounds ~position ~move
       ~service mirror
   | _ -> Alcotest.fail "checkpoint: expected Snapshot");
  (match get_reply d (close_frame 1L) with
   | Frame.Closed { rounds; clamped_rounds; position; move; service; _ } ->
     check_snapshotish "close" ~rounds ~clamped_rounds ~position ~move ~service
       mirror
   | _ -> Alcotest.fail "close: expected Closed");
  expect_error "checkpoint after close" (get_reply d (checkpoint_frame 1L))
    Frame.Unknown_session;
  Alcotest.(check int) "no sessions left" 0 (Daemon.live_sessions d)

(* A saturated bounded queue must block the caller, never drop,
   duplicate, or reorder: submit far more than queue_capacity without
   an explicit flush, then check every reply arrived, in submission
   order, bit-identical to mirrors stepped in that same order. *)
let backpressure_no_drop_no_reorder () =
  with_daemon ~shards:2 ~jobs:2 ~queue_capacity:2 @@ fun d ->
  let nsessions = 6 and nrounds = 40 in
  let ids = Array.init nsessions (fun i -> Int64.of_int i) in
  let mirrors = Array.init nsessions (fun i -> make_mirror (1000 + i)) in
  let opens =
    Array.map
      (fun id -> Daemon.submit d (open_frame id (1000 + Int64.to_int id)))
      ids
  in
  let value i r = (float_of_int ((i * 31) + r) /. 17.0) -. 2.0 in
  let tickets = ref [] in
  for r = 0 to nrounds - 1 do
    Array.iteri
      (fun i id ->
        tickets := (i, r, Daemon.submit d (step_frame id (value i r))) :: !tickets)
      ids
  done;
  let tickets = List.rev !tickets in
  Array.iter
    (fun ticket ->
      match Frame.decode_reply (Daemon.await d ticket) with
      | Ok (Frame.Opened _) -> ()
      | Ok other ->
        Alcotest.failf "open reply was %s" (hex_of (Frame.encode_reply other))
      | Error e -> Alcotest.failf "undecodable open reply: %s" e)
    opens;
  List.iter
    (fun (i, r, ticket) ->
      match Frame.decode_reply (Daemon.await d ticket) with
      | Ok reply ->
        check_stepped
          (Printf.sprintf "session %d round %d" i r)
          reply
          (Engine.Session.step mirrors.(i) [| Vec.make1 (value i r) |])
      | Error e -> Alcotest.failf "undecodable step reply: %s" e)
    tickets;
  Alcotest.(check int) "every session still live" nsessions
    (Daemon.live_sessions d)

let step_and_mirror d mirrors id x =
  let i = Int64.to_int id in
  check_stepped
    (Printf.sprintf "session %Ld" id)
    (get_reply d (step_frame id x))
    (Engine.Session.step mirrors.(i) [| Vec.make1 x |])

(* kill_shard without losing the journal: sessions resume bit-exactly
   by replay.  With lose_journal: clean Unknown_session for the lost
   sessions, business as usual for everyone else. *)
let kill_and_recover () =
  with_daemon ~shards:2 ~jobs:1 @@ fun d ->
  let n = 8 in
  let ids = Array.init n Int64.of_int in
  let mirrors = Array.init n (fun i -> make_mirror (500 + i)) in
  Array.iter
    (fun id ->
      match get_reply d (open_frame id (500 + Int64.to_int id)) with
      | Frame.Opened _ -> ()
      | _ -> Alcotest.failf "open %Ld failed" id)
    ids;
  for r = 0 to 2 do
    Array.iter
      (fun id ->
        step_and_mirror d mirrors id (0.1 *. float_of_int ((Int64.to_int id * 7) + r)))
      ids
  done;
  Alcotest.(check int) "all live before the crash" n (Daemon.live_sessions d);
  let on_shard s =
    Array.to_list ids |> List.filter (fun id -> Daemon.shard_of_session d id = s)
  in
  Alcotest.(check bool) "both shards are populated" true
    (on_shard 0 <> [] && on_shard 1 <> []);
  (* Crash shard 0, journals intact: every session resumes exactly. *)
  Daemon.kill_shard d 0;
  Alcotest.(check int) "journaled sessions still counted" n
    (Daemon.live_sessions d);
  Array.iter
    (fun id ->
      (match get_reply d (checkpoint_frame id) with
       | Frame.Snapshot { rounds; clamped_rounds; position; move; service; _ }
         ->
         check_snapshotish
           (Printf.sprintf "post-crash checkpoint %Ld" id)
           ~rounds ~clamped_rounds ~position ~move ~service
           mirrors.(Int64.to_int id)
       | _ -> Alcotest.failf "checkpoint %Ld: expected Snapshot" id);
      step_and_mirror d mirrors id 0.25)
    ids;
  (* Crash shard 1 and lose its journal: its sessions are gone for
     good and say so cleanly; shard 0 keeps serving. *)
  Daemon.kill_shard ~lose_journal:true d 1;
  Alcotest.(check int) "lost sessions no longer counted"
    (List.length (on_shard 0))
    (Daemon.live_sessions d);
  List.iter
    (fun id ->
      expect_error
        (Printf.sprintf "lost session %Ld" id)
        (get_reply d (step_frame id 0.0))
        Frame.Unknown_session)
    (on_shard 1);
  List.iter (fun id -> step_and_mirror d mirrors id (-0.5)) (on_shard 0)

(* Kill the owning shard after the open and after every step of a 2-D
   open-world schedule, checkpointing after each kill, so every reply
   comes from a recovered session.  A session recovers from its
   journaled state, whose stepper must restart from the last proposal:
   the engine clamps that answer again and may move it by an ulp, and
   the schedule holds such rounds (asserted, so the case keeps covering
   them).  One rejected round, answered before a kill, must leave the
   journal untouched. *)
let kill_after_every_step () =
  let sched =
    Open_world.of_spec
      (Open_world.spec ~arrival_rate:4.0 ~mean_lifetime:16.0 ~initial:32
         ~dim:2 ~seed:3 ~ticks:24 ())
  in
  let d = Daemon.create ~shards:2 ~jobs:1 ~config () in
  Fun.protect ~finally:(fun () -> Daemon.shutdown d) @@ fun () ->
  let mirrors = Hashtbl.create 64 in
  let moved_by_clamp = ref 0 and rejected = ref false in
  let kill_and_checkpoint what id =
    Daemon.kill_shard d (Daemon.shard_of_session d id);
    match get_reply d (checkpoint_frame id) with
    | Frame.Snapshot { rounds; clamped_rounds; position; move; service; _ } ->
      check_snapshotish what ~rounds ~clamped_rounds ~position ~move ~service
        (Hashtbl.find mirrors id)
    | _ -> Alcotest.failf "%s: expected Snapshot" what
  in
  Open_world.iter_stream (Open_world.spec_of sched)
    ~open_:(fun p ~start ->
      let id = p.Open_world.id and seed = p.Open_world.seed in
      (match
         get_reply d
           (Frame.encode_request (Frame.Open { session = id; seed; start }))
       with
       | Frame.Opened _ -> ()
       | _ -> Alcotest.failf "open %Ld: expected Opened" id);
      Hashtbl.replace mirrors id
        (Engine.Session.create ~rng:(Daemon.session_rng ~seed) config
           Mobile_server.Mtc.algorithm ~start);
      kill_and_checkpoint (Printf.sprintf "session %Ld opened" id) id)
    ~step:(fun p ~round requests ->
      let id = p.Open_world.id in
      let what = Printf.sprintf "session %Ld round %d" id round in
      if round = 1 && not !rejected then begin
        rejected := true;
        expect_error (what ^ " (1-D round)")
          (get_reply d
             (Frame.encode_request
                (Frame.Step { session = id; requests = [| [| 1.0 |] |] })))
          Frame.Bad_request;
        kill_and_checkpoint (what ^ " rejected") id
      end;
      let record = Engine.Session.step (Hashtbl.find mirrors id) requests in
      if not (eq_vec record.Engine.proposed record.Engine.position) then
        incr moved_by_clamp;
      check_stepped what
        (get_reply d
           (Frame.encode_request (Frame.Step { session = id; requests })))
        record;
      kill_and_checkpoint what id)
    ~close:(fun p ->
      let id = p.Open_world.id in
      (match get_reply d (close_frame id) with
       | Frame.Closed { rounds; clamped_rounds; position; move; service; _ } ->
         check_snapshotish
           (Printf.sprintf "session %Ld closed" id)
           ~rounds ~clamped_rounds ~position ~move ~service
           (Hashtbl.find mirrors id)
       | _ -> Alcotest.failf "close %Ld: expected Closed" id);
      Hashtbl.remove mirrors id)
    ~tick_end:(fun ~tick:_ -> ());
  Alcotest.(check bool) "a round was rejected" true !rejected;
  Alcotest.(check bool) "some position differs from its proposal" true
    (!moved_by_clamp > 0);
  Alcotest.(check int) "every session closed" 0 (Daemon.live_sessions d)

(* A session's journal is its state after the last accepted round,
   updated in place, so a journaled daemon does not grow with the
   steps it has served. *)
let journal_memory_bounded () =
  with_daemon ~shards:1 ~jobs:1 @@ fun d ->
  (match get_reply d (open_frame 1L 5) with
   | Frame.Opened _ -> ()
   | _ -> Alcotest.fail "open: expected Opened");
  let serve_steps lo hi =
    for k = lo to hi do
      match get_reply d (step_frame 1L (Float.sin (float_of_int k))) with
      | Frame.Stepped _ -> ()
      | _ -> Alcotest.failf "step %d: expected Stepped" k
    done
  in
  serve_steps 1 1_000;
  let after_1k = Obj.reachable_words (Obj.repr d) in
  serve_steps 1_001 20_000;
  Alcotest.(check int) "reachable words after 1k and 20k steps" after_1k
    (Obj.reachable_words (Obj.repr d))

(* --- open-world schedule ---------------------------------------------- *)

let schedule ?(seed = 11) ?(ticks = 8) () =
  Open_world.of_spec
    (Open_world.spec ~arrival_rate:3.0 ~mean_lifetime:4.0 ~dim:1 ~seed ~ticks
       ())

let iter_trace t =
  let b = Buffer.create 1024 in
  Open_world.iter_stream (Open_world.spec_of t)
    ~open_:(fun p ~start ->
      Buffer.add_string b
        (Printf.sprintf "o%Ld:%d:%Lx " p.Open_world.id p.Open_world.seed
           (bits start.(0))))
    ~step:(fun p ~round requests ->
      Buffer.add_string b
        (Printf.sprintf "s%Ld:%d:%d:%Lx " p.Open_world.id round
           (Array.length requests)
           (if Array.length requests > 0 then bits requests.(0).(0) else 0L)))
    ~close:(fun p -> Buffer.add_string b (Printf.sprintf "c%Ld " p.Open_world.id))
    ~tick_end:(fun ~tick -> Buffer.add_string b (Printf.sprintf "t%d " tick));
  Buffer.contents b

let open_world_determinism () =
  let a = schedule () and b = schedule () in
  Alcotest.(check string) "fingerprint is pure" (Open_world.fingerprint a)
    (Open_world.fingerprint b);
  Alcotest.(check bool) "different seeds differ" true
    (Open_world.fingerprint a <> Open_world.fingerprint (schedule ~seed:12 ()));
  Alcotest.(check string) "iteration is pure" (iter_trace a) (iter_trace b);
  let plans = Open_world.plans a in
  Alcotest.(check int) "sessions = plans" (Array.length plans)
    (Open_world.sessions a);
  Alcotest.(check bool) "peak_live is sane" true
    (Open_world.peak_live a >= 1
     && Open_world.peak_live a <= Open_world.sessions a);
  Array.iter
    (fun p ->
      if p.Open_world.rounds < 1 then
        Alcotest.failf "plan %Ld has lifetime %d" p.Open_world.id
          p.Open_world.rounds;
      if p.Open_world.arrival + p.Open_world.rounds > Open_world.ticks a then
        Alcotest.failf "plan %Ld outlives the horizon" p.Open_world.id)
    plans;
  (* Instances regenerate bit-identically from the plan seed alone. *)
  Array.iteri
    (fun k p ->
      if k < 3 then begin
        let i1 = Open_world.plan_instance a p in
        let i2 = Open_world.plan_instance b p in
        Alcotest.(check int)
          (Printf.sprintf "plan %Ld instance length" p.Open_world.id)
          p.Open_world.rounds
          (Array.length i1.Mobile_server.Instance.steps);
        if
          not
            (eq_vec i1.Mobile_server.Instance.start
               i2.Mobile_server.Instance.start
             && Array.for_all2
                  (fun r1 r2 ->
                    Array.length r1 = Array.length r2
                    && Array.for_all2 eq_vec r1 r2)
                  i1.Mobile_server.Instance.steps
                  i2.Mobile_server.Instance.steps)
        then
          Alcotest.failf "plan %Ld instance is not reproducible" p.Open_world.id
      end)
    plans

let qcheck_schedule_jobs_invariant =
  QCheck.Test.make ~count:25
    ~name:"same seed, same schedule at any jobs count"
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let keep = Exec.jobs () in
      Fun.protect
        ~finally:(fun () -> Exec.set_jobs keep)
        (fun () ->
          Exec.set_jobs 1;
          let one = Open_world.fingerprint (schedule ~seed ~ticks:6 ()) in
          Exec.set_jobs 4;
          let many = Open_world.fingerprint (schedule ~seed ~ticks:6 ()) in
          one = many))

(* --- driver: the serve = engine identity wall -------------------------- *)

let driver_identity () =
  let sched = schedule () in
  let spec = Open_world.spec_of sched in
  let run jobs =
    with_daemon ~shards:4 ~jobs @@ fun d -> Driver.run d spec
  in
  let r1 = run 1 in
  let r3 = run 3 in
  List.iter
    (fun (name, r) ->
      if not (Driver.ok r) then
        Alcotest.failf "%s: identity wall breached:\n%s" name
          (String.concat "\n" r.Driver.mismatches))
    [ ("jobs=1", r1); ("jobs=3", r3) ];
  Alcotest.(check int) "every session served" (Open_world.sessions sched)
    r1.Driver.sessions;
  Alcotest.(check int) "every round stepped"
    (Array.fold_left
       (fun acc p -> acc + p.Open_world.rounds)
       0 (Open_world.plans sched))
    r1.Driver.steps;
  Alcotest.(check string) "jobs=1 and jobs=3 reply streams are byte-identical"
    r1.Driver.reply_digest r3.Driver.reply_digest;
  Alcotest.(check int) "peak live agrees" r1.Driver.peak_live r3.Driver.peak_live;
  Alcotest.(check int) "no latencies without a clock" 0
    (Array.length r1.Driver.latencies)

let () =
  Alcotest.run "serve"
    [
      ( "frame",
        [
          Alcotest.test_case "golden fixtures pin the wire format" `Quick
            golden_pins;
          Alcotest.test_case "malformed frames are rejected precisely" `Quick
            malformed_rejection;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              qcheck_request_roundtrip; qcheck_reply_roundtrip;
              qcheck_codec_matches_reference;
            ]
        @ [
            Alcotest.test_case "request count above 0xFFFF raises" `Quick
              encode_step_count_range;
            Alcotest.test_case "dimension above 0xFFFF raises" `Quick
              encode_dimension_range;
            Alcotest.test_case "payload above max_payload raises" `Quick
              encode_payload_range;
            Alcotest.test_case "error message cut to 65,535 bytes" `Quick
              encode_error_message_cut;
            Alcotest.test_case "u32 field outside its range raises" `Quick
              encode_u32_range;
          ] );
      ( "daemon",
        [
          Alcotest.test_case "serves, rejects, survives hostility" `Quick
            daemon_serves_and_survives;
          Alcotest.test_case "backpressure drops and reorders nothing" `Quick
            backpressure_no_drop_no_reorder;
          Alcotest.test_case "shard crash: exact resume or clean loss" `Quick
            kill_and_recover;
          Alcotest.test_case "kill after every step: exact resume" `Quick
            kill_after_every_step;
          Alcotest.test_case "journal memory is O(1) in steps" `Quick
            journal_memory_bounded;
        ] );
      ( "open-world",
        [ Alcotest.test_case "schedule determinism" `Quick open_world_determinism ]
        @ List.map QCheck_alcotest.to_alcotest [ qcheck_schedule_jobs_invariant ]
      );
      ( "driver",
        [
          Alcotest.test_case "serve = engine, jobs=1 = jobs=N" `Quick
            driver_identity;
        ] );
    ]
