(** Model parameters of a Mobile Server Problem run.

    Groups the paper's constants: the page-weight [D >= 1], the
    per-round movement limit [m > 0], the resource-augmentation factor
    [δ >= 0] granted to the online algorithm (it may move [(1+δ)·m] per
    round; the offline optimum always moves at most [m]), and the cost
    {!Variant}. *)

type t = private {
  d_factor : float;  (** The movement cost weight [D]; at least 1. *)
  move_limit : float;  (** The offline per-round movement limit [m]. *)
  delta : float;  (** Augmentation [δ]; the paper studies δ ∈ (0, 1]. *)
  variant : Variant.t;
}

val make :
  ?d_factor:float -> ?move_limit:float -> ?delta:float ->
  ?variant:Variant.t -> unit -> t
(** [make ()] validates and builds a configuration.  Defaults:
    [d_factor = 1.], [move_limit = 1.], [delta = 0.] (no augmentation),
    [variant = Move_first].  Raises [Invalid_argument] if
    [d_factor < 1], [move_limit <= 0], [delta < 0], or any parameter is
    non-finite. *)

val online_limit : t -> float
(** [online_limit c] is [(1 + delta) · move_limit] — the online
    algorithm's per-round movement budget. *)

val offline_limit : t -> float
(** [offline_limit c] is [move_limit] — the adversary/optimum budget. *)

val with_delta : t -> float -> t
(** [with_delta c delta] is [c] with the augmentation replaced. *)

val with_variant : t -> Variant.t -> t
(** [with_variant c v] is [c] with the cost variant replaced. *)

val pp : Format.formatter -> t -> unit
