(** Flat per-op sample buffers and the percentile rules the benchmark
    reports with. *)

type samples
(** A preallocated flat buffer of float samples. *)

val create : int -> samples
(** [create capacity] reserves room for [capacity] samples. *)

val count : samples -> int

val full : samples -> bool
(** No room left; a measured phase ends when its buffer fills. *)

val add : samples -> float -> unit
(** Record one sample; a no-op once {!full}. *)

val sorted : samples -> float array
(** The recorded samples in ascending order (a fresh array). *)

val ladder : (int * string) list
(** The reported percentiles, in parts per 100_000, with their labels:
    p50, p75, p90, p99, p99.9, p99.99, p99.999. *)

val rank : ppm:int -> int -> int
(** [rank ~ppm n] is the nearest-rank index of percentile [ppm] among
    [n] sorted samples. *)

val beyond : ppm:int -> int -> int
(** Samples strictly above {!rank}'s position. *)

val tail : n:int -> int * string
(** The highest {!ladder} percentile with at least ten samples beyond
    it among [n]; p50 when no percentile has. *)

val at : float array -> ppm:int -> float
(** [at sorted ~ppm] reads a percentile off ascending samples; [nan]
    when there are none. *)
