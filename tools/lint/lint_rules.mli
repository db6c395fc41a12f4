(** The repo's source-level lint rules, applied to parsed ASTs.

    Rules are purely syntactic (no typing pass), so the float-equality
    and NaN-source checks are heuristics: they fire on literal/ident
    evidence in the source, never on inferred types.  See
    [docs/analysis.md] for the exact scope of each rule. *)

type file_kind =
  | Library  (** Under [lib/]: the strictest rule set. *)
  | Prng_library  (** Under [lib/prng]: exempt from [determinism-random]. *)
  | Driver  (** [bin/], [bench/], [examples/]: executables may print/exit. *)
  | Tool
      (** Under [tools/]: may print/exit like a driver, but must stay
          deterministic (clock/env rules apply). *)

type severity = Error | Warning

val severity_name : severity -> string
(** ["error"] / ["warning"], as emitted in JSON and SARIF. *)

type finding = {
  file : string;
  line : int;  (** 1-based. *)
  col : int;  (** 0-based, as in compiler messages. *)
  rule : string;  (** Rule id, e.g. ["determinism-random"]. *)
  severity : severity;
  message : string;
}

type rule = {
  id : string;
  summary : string;  (** One line, shown by [--rules]. *)
  severity : severity;
  explain : string;  (** Multi-line rationale, shown by [--explain]. *)
}

val rules : rule list
(** Every rule the linter can emit, including the driver-level
    [missing-mli] and the whole-tree passes of {!Lint_passes}. *)

val find_rule : string -> rule option

val rule_severity : string -> severity
(** Severity of the rule with the given id ([Error] for unknown ids,
    which cannot arise from this executable). *)

val flatten : Longident.t -> string list
(** [Longident.flatten] that returns [[]] instead of raising on
    [Lapply]. *)

val strip_stdlib : string list -> string list
(** Drop a leading ["Stdlib"] segment so [Stdlib.Random.int] and
    [Random.int] compare equal. *)

val is_float_evidence : Parsetree.expression -> bool
(** Syntactic float evidence: a float literal, a float constant
    ([nan], [Float.pi], ...), or an application of a float operator
    ([+.], [sqrt], ...). *)

val check_structure :
  kind:file_kind -> file:string -> Parsetree.structure -> finding list
(** Findings for one [.ml] AST, in source order. *)

val check_signature :
  kind:file_kind -> file:string -> Parsetree.signature -> finding list
(** Findings for one [.mli] AST (interfaces rarely trip expression
    rules, but module aliases to [Random] and the like are caught). *)
