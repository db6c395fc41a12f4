(** Problem instances: a start position plus the request sequence.

    An instance is the input an online algorithm consumes round by
    round: at step [t] (0-based) the positions [steps.(t)] light up,
    the server reacts, costs accrue per the {!Variant}.  The instance
    does not carry the model constants — those live in {!Config} — so
    one request sequence can be replayed under many parameter
    settings. *)

type t = private {
  start : Geometry.Vec.t;  (** [P_0], also the initial optimum position. *)
  steps : Geometry.Vec.t array array;
      (** [steps.(t)] are the request positions of round [t+1]; rounds
          may be empty (no requests). *)
}

val make : start:Geometry.Vec.t -> Geometry.Vec.t array array -> t
(** [make ~start steps] validates that every request has the dimension
    of [start] and builds the instance.  The arrays are copied, so later
    mutation of the caller's arrays cannot corrupt the instance. *)

(** Struct-of-arrays view of an instance: every request coordinate in
    one flat {!Geometry.Points} buffer plus a per-round offset table.
    The offline solvers, {!Cost.trajectory},
    [Engine.total_cost_packed] and the experiment sweeps read this
    representation; {!pack} is lossless, so a packed instance holds
    every coordinate of the boxed one bit for bit. *)
module Packed : sig
  type t

  val dim : t -> int
  (** Space dimension. *)

  val length : t -> int
  (** Number of rounds [T]. *)

  val total_requests : t -> int
  (** Requests over all rounds = [round_start t (length t)]. *)

  val start : t -> Geometry.Vec.t
  [@@borrow]
  (** The start position — a borrow of the internal vector; treat as
      read-only. *)

  val points : t -> Geometry.Points.t
  [@@borrow]
  (** All requests, rounds concatenated in order — a borrow; treat as
      read-only. *)

  val round_start : t -> int -> int
  (** [round_start p t] is the index in {!points} of round [t]'s first
      request; valid for [t] in [0, length p] (the last value is the
      total request count, so [round_start p t, round_start p (t+1))]
      is always round [t]'s slice). *)

  val round_length : t -> int -> int
  (** Number of requests in round [t]. *)

  val serialize : t -> string
  (** Deterministic byte serialization (dimensions, offsets, and IEEE
      bit patterns, little-endian): two packed instances serialize
      equally iff they are bit-identical.  Content-addressing key
      material for {!Offline.Opt_cache}-style memoisation. *)

  val content_digest : t -> string
  (** MD5 of {!serialize}, memoized on the (immutable) value — repeat
      cache lookups on the same instance pay serialization once, not
      per lookup.  Equal digests ⇔ equal serializations (modulo MD5). *)
end

val pack : t -> Packed.t
(** [pack inst] is the struct-of-arrays view of [inst] — a lossless
    copy, never a borrow. *)

val dim : t -> int
(** Space dimension. *)

val length : t -> int
(** Number of rounds [T]. *)

val total_requests : t -> int
(** Sum of requests over all rounds. *)

val request_bounds : t -> int * int
(** [(Rmin, Rmax)] over rounds — the quantities in Theorems 2 and 4.
    [(0, 0)] for an empty instance. *)

val single_trajectory : t -> Geometry.Vec.t array option
(** If every round has exactly one request (the Moving Client shape),
    the agent positions [A_1 .. A_T]; otherwise [None]. *)

val is_moving_client : speed:float -> t -> bool
(** [is_moving_client ~speed inst] checks the Moving Client model's
    input constraint: one request per round, each within [speed] of the
    previous one ([A_0 = start]), within {!Config.budget_slack}. *)

val pp : Format.formatter -> t -> unit
(** Prints a compact summary (dimension, rounds, request counts). *)
