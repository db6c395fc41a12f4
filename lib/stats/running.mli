(** Single-pass summary statistics (Welford's algorithm).

    Numerically stable mean/variance accumulation, used by the
    experiment harness to summarize per-seed competitive ratios. *)

type t
(** Mutable accumulator. *)

val create : unit -> t
(** A fresh, empty accumulator. *)

val add : t -> float -> unit
(** [add acc x] folds one observation in.  Non-finite observations raise
    [Invalid_argument] — an experiment producing a NaN ratio is a bug we
    want loudly. *)

val count : t -> int
(** Number of observations so far. *)

val mean : t -> float
(** Sample mean.  [nan] when empty. *)

val variance : t -> float
(** Unbiased sample variance.  [0.] with fewer than two observations. *)

val stddev : t -> float
(** Square root of {!variance}. *)

val std_error : t -> float
(** Standard error of the mean: [stddev / sqrt count]. *)

val min : t -> float
(** Smallest observation.  [nan] when empty. *)

val max : t -> float
(** Largest observation.  [nan] when empty. *)

val sum : t -> float
(** Sum of all observations. *)

val of_array : float array -> t
(** [of_array xs] folds every element of [xs] into a fresh accumulator
    (left to right).  Raises [Invalid_argument] on non-finite values,
    like {!add}. *)
