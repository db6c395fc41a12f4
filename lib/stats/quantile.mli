(** Quantiles and order statistics over stored samples.

    All entry points reject non-finite observations with
    [Invalid_argument], matching {!Running.add}: a NaN would silently
    shift quantiles (it sorts to one end) or inflate the first
    histogram bin. *)

val quantile : float array -> float -> float
(** [quantile xs q] is the [q]-quantile ([0 <= q <= 1]) of a non-empty
    sample, with linear interpolation between order statistics (type-7,
    the R default).  Does not modify [xs].  Raises [Invalid_argument]
    on an empty sample, [q] outside [[0, 1]], or non-finite values. *)

val median : float array -> float
(** [median xs] is [quantile xs 0.5]. *)

val histogram : bins:int -> float array -> (float * float * int) array
(** [histogram ~bins xs] buckets a non-empty sample into [bins] equal
    width bins over [[min, max]]; each cell is
    [(lower_edge, upper_edge, count)].  The top edge is inclusive.
    [bins >= 1]. *)
