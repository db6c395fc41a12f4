(** Named, reproducible random streams.

    Experiments derive independent generators from [(experiment id,
    seed, replicate)] triples, so adding a replicate or re-ordering
    measurements never perturbs other streams — a requirement for the
    paper's Yao-principle averages to be rerun exactly. *)

type t = Xoshiro.t
(** A stream is just a xoshiro generator. *)

val named : name:string -> seed:int -> t
(** [named ~name ~seed] derives a stream from a label and a seed.  The
    label is hashed with FNV-1a into the seed material, so distinct
    names give independent streams. *)

val replicate : t -> int -> t
(** [replicate base i] is the [i]-th independent substream of [base],
    derived without mutating [base]. *)
