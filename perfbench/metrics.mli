(** Every metric the benchmark emits, and its JSON output.  These lists
    and BENCHMARK.json name the same metrics; the tests check both. *)

type spec = { name : string; unit : string }

val end_to_end : spec list
(** Reported by untraced runs: throughput, latency_p50_ms,
    latency_tail_ms, peak_rss_mb, setup_s.  [failed_share] is printed
    too, but it is 0 on every correct run, so it travels as the result's
    [attempted]/[failed] counts rather than as a bounded metric. *)

val per_layer : spec list
(** Reported by traced runs.  A [*_s] layer metric is the self time of
    the span of the same name without the suffix; layers a workload
    does not run report 0. *)

val valid_name : string -> bool
(** 1 to 64 characters from [[A-Za-z0-9_.-]], starting with a letter
    or a digit. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Num of float  (** Non-finite numbers print as [null]. *)
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val to_string : json -> string
(** One line; floats with all 17 significant digits. *)

val result_line :
  correct:bool -> attempted:int -> failed:int -> (spec * float) list ->
  string
(** The run's last output line:
    [{"correct": .., "attempted": .., "failed": .., "metrics": {name:
    {"value": .., "unit": ..}, ..}}]. *)
