(** The machine a record was measured on. *)

val peak_rss_mb : unit -> float
(** VmHWM from [/proc/self/status] in MiB — unlike heap statistics it
    includes buffers outside the OCaml heap (Bigarray-backed
    [Geometry.Fbuf]s); [nan] where procfs is missing. *)

val calib_ms : unit -> float
(** Time a fixed floating-point loop.  A drift diagnostic only: it is
    recorded at the start and end of each run and never rescales a
    metric. *)

val domains : unit -> int
(** [Domain.recommended_domain_count ()]. *)

val ocaml_version : string

val flambda : bool
(** Whether the compiler that built the benchmark has flambda. *)
