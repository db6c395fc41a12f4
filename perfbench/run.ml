open Perfbench

let now = Unix.gettimeofday

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

(* Failures found by the correctness checks; the first few are kept
   verbatim for the record. *)
type checks = { mutable n_failed : int; mutable problems_rev : string list }

let checks () = { n_failed = 0; problems_rev = [] }

let fail c fmt =
  Printf.ksprintf
    (fun msg ->
      c.n_failed <- c.n_failed + 1;
      if c.n_failed <= 8 then c.problems_rev <- msg :: c.problems_rev)
    fmt

let failed c = c.n_failed
let problems c = List.rev c.problems_rev

(* Set-up ends here and the measured phase begins: collect the set-up's
   garbage outside every timed window, so each run starts measuring
   from the same heap state. *)
let begin_measure ctx =
  Tracer.stop ctx.tracer;
  Gc.full_major ();
  let gc0 = Gc.quick_stat () in
  if ctx.traced then Tracer.start ctx.tracer;
  (gc0, now ())

let gc_delta (g0 : Gc.stat) =
  let g1 = Gc.quick_stat () in
  [ ("runtime.gc.minor_collections",
     float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
    ("runtime.gc.major_collections",
     float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
    ("runtime.gc.minor_words", g1.Gc.minor_words -. g0.Gc.minor_words);
    ("runtime.gc.promoted_words", g1.Gc.promoted_words -. g0.Gc.promoted_words) ]

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
