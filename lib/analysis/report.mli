(** Structured audit reports for simulated runs.

    The paper's guarantees (Theorems 4, 7 and 10) are statements about
    runs that respect the model invariants: the server moves at most
    [(1+δ)·m] per round, costs are the exact [D·move + Σ dist]
    accounting with no NaN/negative terms, and a fixed seed replays to
    an identical trajectory.
    {!Audit} checks those invariants and reports breaches here; a report
    with an empty violation list certifies that none of the checked
    invariants was observed to fail on the audited run. *)

type kind =
  | Clamped_proposal of { distance : float; limit : float }
      (** The algorithm proposed a move of [distance], beyond the online
          budget [limit = (1+δ)·m]; the engine's safety net cut it back.
          A correct algorithm never relies on the clamp. *)
  | Non_finite_proposal
      (** The algorithm answered a position with a NaN or infinite
          coordinate. *)
  | Non_finite_position
      (** The post-clamp server position carries a NaN or infinite
          coordinate (e.g. poisoned by an earlier bad proposal). *)
  | Non_finite_cost  (** A round's move or service cost is NaN/infinite. *)
  | Negative_cost  (** A round's move or service cost is negative. *)
  | Nondeterministic of { coord : int }
      (** Replaying the run with an identical seed diverged at this
          round (first differing coordinate [coord]) — the algorithm
          draws entropy outside the supplied PRNG. *)

type violation = { round : int; kind : kind }

type t = {
  algorithm : string;  (** Display name of the audited algorithm. *)
  rounds : int;  (** Rounds audited. *)
  clamped : int;  (** Rounds whose proposal the engine clamped. *)
  determinism_checked : bool;
      (** Whether the seed-replay check ran (it costs a second run). *)
  violations : violation list;  (** In round order. *)
}

val ok : t -> bool
(** [ok r] is true iff [r] records no violations. *)

val count : t -> kind:(kind -> bool) -> int
(** [count r ~kind] is the number of violations satisfying [kind]. *)

val is_clamped : kind -> bool

val is_nondeterministic : kind -> bool

val pp_kind : Format.formatter -> kind -> unit

val pp_violation : Format.formatter -> violation -> unit
(** Prints as [round N: <kind>]. *)

val pp : Format.formatter -> t -> unit
(** Multi-line human-readable report: header, clamp count, then one
    line per violation (capped at 20, with a "... and K more" tail). *)

val summary : t -> string
(** One-line verdict, e.g. ["mtc: 200 rounds, 0 violations (audit ok)"]. *)
