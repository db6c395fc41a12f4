(** Outside-in span tracing: the benchmark wraps its calls into each
    layer's public functions in spans and reports each span name's
    {e self time} — its duration minus the time its child spans cover.

    A span records a name, start, end, parent span and op id.  Self
    times are aggregated as spans close, so every span counts; the
    first [capacity] spans are also kept in flat buffers and written
    out by {!write} when the run ends.  While the tracer is stopped,
    {!enter} and {!leave} return at once, so untraced runs pay one
    branch per hook. *)

type t

val create : ?clock:(unit -> float) -> ?capacity:int -> unit -> t
(** A stopped tracer.  [clock] (default [Unix.gettimeofday]) returns
    seconds; tests pass a fake one.  [capacity] (default 2{^17}) is the
    number of spans kept for {!write}. *)

val name : t -> string -> int
(** Intern a span name; hooks take the returned id. *)

val start : t -> unit
(** Begin or resume recording; the time until {!stop} adds to
    {!window_s}. *)

val stop : t -> unit
(** Pause recording.  Open spans stay open: the paused time counts
    toward none of them, nor toward the window.  Do not enter or leave
    spans while paused. *)

val enter : t -> int -> op:int -> unit
(** Open a span under the innermost open one.  [op] identifies the
    operation the span works for (a session id, a cell index). *)

val leave : t -> unit
(** Close the innermost span. *)

val leave_as : t -> int -> unit
(** Close the innermost span under another name — for calls whose
    layer is known only afterwards (a cache lookup that missed). *)

val self_s : t -> string -> float
(** Total self time of every span with this name. *)

val calls : t -> string -> int
(** Spans closed under this name. *)

val names : t -> string list
(** Every interned name, in interning order. *)

val window_s : t -> float
(** Wall time spent recording. *)

val spans : t -> int
(** Spans opened in total. *)

val stored : t -> int
(** Spans kept for {!write}. *)

val write : t -> out_channel -> unit
(** Tab-separated kept spans, times in microseconds from the first
    {!start}. *)
