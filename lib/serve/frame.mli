(** The serve daemon's wire protocol: compact, versioned, length-prefixed
    binary frames.

    A frame is a 4-byte big-endian payload length followed by the
    payload.  The payload starts with a one-byte version tag (currently
    {!protocol_version}) and a one-byte opcode; the rest is the
    opcode-specific body.  Integers travel big-endian at fixed width;
    floats travel as the 8 bytes of their IEEE-754 bit pattern, so a
    decoded reply is {e bit-lossless} — the byte-identity gates in
    [bench serve] and the simtest serve oracle rest on this.

    Decoding is total and precise: every malformed input is rejected
    with an [Error] naming the defect (truncated length prefix, bad
    version tag, unknown opcode, truncated body, non-finite request
    coordinate, trailing bytes), never an exception — a hostile frame
    must not be able to kill a shard.  The committed fixtures under
    [test/golden/frames_v1.hex] pin the exact encoding. *)

val protocol_version : int
(** Version tag carried by every frame; currently [1]. *)

val max_payload : int
(** Upper bound on an accepted payload length; longer prefixes are
    rejected as malformed rather than allocated. *)

(** Client-to-daemon messages. *)
type request =
  | Open of { session : int64; seed : int; start : float array }
      (** Open session [session] with the server at [start]; the
          session's PRNG is derived from [seed] (see
          {!Daemon.session_rng}). *)
  | Step of { session : int64; requests : float array array }
      (** Feed one round of requests; answered by {!Stepped}. *)
  | Checkpoint of { session : int64 }
      (** Ask for the session's cumulative state; answered by
          {!Snapshot}. *)
  | Close of { session : int64 }
      (** Retire the session; answered by {!Closed} (a final
          snapshot). *)

type error_code =
  | Bad_frame  (** The frame itself did not decode. *)
  | Unknown_session  (** No such session (never opened, closed, or lost). *)
  | Duplicate_session  (** [Open] of an id that is already live. *)
  | Bad_request
      (** A structurally valid [Step] the engine rejected (for example a
          dimension mismatch); the session is untouched and still
          live. *)

(** Daemon-to-client messages. *)
type reply =
  | Opened of { session : int64 }
  | Stepped of {
      session : int64;
      position : float array;  (** Server position after the round. *)
      move : float;  (** This round's movement cost. *)
      service : float;  (** This round's service cost. *)
      clamped : bool;  (** Whether the proposal hit the online budget. *)
    }
  | Snapshot of {
      session : int64;
      rounds : int;  (** Rounds played so far. *)
      clamped_rounds : int;
      position : float array;
      move : float;  (** Cumulative movement cost. *)
      service : float;  (** Cumulative service cost. *)
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
      (** [session] is [0L] when the offending frame did not name one. *)

val error_code_to_string : error_code -> string
(** Stable lower-case names ("bad-frame", "unknown-session", ...). *)

val encode_request : request -> string
(** One full frame, length prefix included.  Requests with non-finite
    coordinates or a zero-dimensional vector encode faithfully (the bits
    travel) but will be rejected by {!decode_request} — that is how the
    malformed-frame tests build their fixtures.

    Raises [Invalid_argument], naming the field, for what a v1 frame
    cannot carry: a request count or vector dimension above 0xFFFF (the
    width of their u16 fields), or a payload above {!max_payload}.  So
    an encoded frame never reads back as a different request. *)

val encode_reply : reply -> string
(** One full frame, length prefix included.

    Raises [Invalid_argument], naming the field, for a position
    dimension above 0xFFFF, a [rounds] or [clamped_rounds] outside
    [\[0, 0xFFFF_FFFF\]] (their u32 fields), or a payload above
    {!max_payload}.  An [Error] message longer than 65,535 bytes (its
    u16 length field) is cut to its first 65,535 bytes instead, so every
    error reply encodes and decodes. *)

val decode_request : string -> (request, string) result
(** Decode exactly one framed request.  [Error] pinpoints the defect;
    trailing bytes after the frame are a defect too. *)

val decode_reply : string -> (reply, string) result
(** Decode exactly one framed reply. *)
