(** The annotation-driven passes: guarded-by lock discipline,
    borrow/escape, and boxed-float-closure (opted into per module).  Both consume the attributes
    extracted by {!Lint_annot}; the annotation language and the known
    syntactic approximations are documented in docs/analysis.md. *)

type registry
(** Borrow accessors collected from [.mli] files: a set of
    (module-or-submodule name, val name) pairs whose call sites the
    borrow pass tracks.  Qualified calls match on their last two
    path segments, so [Instance.Packed.start] registers and resolves
    as [("Packed", "start")]. *)

val create_registry : unit -> registry

val scan_signature :
  registry -> module_name:string -> Parsetree.signature -> unit
(** Record every [val ... [@@borrow]] of the signature (recursing into
    nested module signatures, keyed by the submodule's own name).
    [module_name] is normally derived from the file name. *)

type exports
(** Top-level [val] names of a module's interface, with their
    [@@borrow] status — drives the return-escape check. *)

val exports_of_signature : Parsetree.signature -> exports

val check_structure :
  file:string ->
  registry:registry ->
  exports:exports option ->
  Parsetree.structure ->
  Lint_rules.finding list
(** Run the three passes over one implementation.  [exports] is the parsed
    sibling [.mli] when one exists; without it the return-escape check
    is skipped (nothing is public).  Findings are in source order. *)
