(** What every workload shares: the run context, the measured-phase
    result, the correctness-check tally and the phase boundary. *)

open Perfbench

val now : unit -> float

type ctx = {
  seed : int;
  units : int;
      (** The measured phase's work: ticks, seeds or instances.  A fixed
          amount, so every run of a seed does identical work and the
          traced pass repeats the untraced pass exactly. *)
  deadline_s : float;
      (** A guard: the measured phase also ends at the first unit
          boundary past this many seconds.  A traced pass gets
          [infinity] and the units its untraced pass completed. *)
  setups : int;  (** Set-up repetitions; [setup_s] is their median. *)
  traced : bool;
  tracer : Tracer.t;
}

type result = {
  ops : int;  (** Ops completed in the measured phase. *)
  units : int;  (** Ticks, seeds or instances the measured phase ran. *)
  wall_s : float;  (** Wall time of the whole measured phase. *)
  lat : Pct.samples;  (** Per-op latency, seconds. *)
  tail : Pct.samples;
      (** Latencies the tail percentile is read from, one per
          independent unit: [lat] itself, or on serve one per tick. *)
  tail_unit : string;  (** What one [tail] sample is, for the record. *)
  setup_s : float array;  (** Each set-up repetition's time. *)
  gc : (string * float) list;  (** [runtime.gc.*] deltas, measured phase. *)
  rss_mb : float;  (** VmHWM when the measured phase ended. *)
  attempted : int;
  failed : int;
  problems : string list;
  layers : (string * float) list;
      (** Per-layer values computed outside spans: counts, and oracle
          times (the oracle runs outside the traced window). *)
  mirror_s : float;
      (** Traced-pass time spent on work the untraced pass does not do
          (in-process mirror sessions); excluded from the overhead. *)
  notes : (string * string) list;
}

type checks

val checks : unit -> checks
val fail : checks -> ('a, unit, string, unit) format4 -> 'a

val failed : checks -> int
val problems : checks -> string list

val begin_measure : ctx -> Gc.stat * float
(** End set-up: pause the tracer, run a full major collection outside
    every timed window, then return the GC counters and the clock at
    the start of the measured phase. *)

val gc_delta : Gc.stat -> (string * float) list

val same_bits : float -> float -> bool
