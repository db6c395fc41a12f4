(** Extraction of the lint annotation language's custom attributes
    ([@@guarded_by], [@@unguarded], [@lock_wrapper], [@requires_lock],
    [@@borrow], [@@@no_boxed_floats]) from parsetree attribute lists.  See docs/analysis.md
    for the annotation language itself. *)

val guarded_by : Parsetree.attributes -> string option
(** The lock name from [[@guarded_by lock]], if present.  Dotted
    payloads reduce to their last segment ([state.lock] → ["lock"]). *)

val unguarded : Parsetree.attributes -> bool
(** Whether [[@unguarded "reason"]] is present. *)

val borrow : Parsetree.attributes -> bool
(** Whether [[@borrow]] is present. *)

val lock_wrapper : Parsetree.attributes -> string option
(** The lock name from [[@lock_wrapper lock]], if present. *)

val requires_lock : Parsetree.attributes -> string option
(** The lock name from [[@requires_lock lock]], if present. *)

val field_attrs : Parsetree.label_declaration -> Parsetree.attributes
(** A record field's attributes, whether written on the label
    declaration or on its core type. *)

val no_boxed_floats : Parsetree.structure -> bool
(** Whether the implementation carries a top-level floating
    [[@@@no_boxed_floats]], opting it into the boxed-float-closure
    check. *)
