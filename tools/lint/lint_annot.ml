(* The lint annotation language: a handful of custom attributes that
   turn the ownership and locking contracts documented in .mli prose
   into machine-checkable facts.  The compiler ignores unknown
   attributes, so annotating costs nothing at build time; msp_lint's
   whole-tree passes (Lint_passes) consume them.

     [@@guarded_by lock]   on a top-level binding of mutable state:
                           every access must hold [lock].
     [@guarded_by lock]    same, on a record field (the lock is a
                           sibling [Mutex.t] field).
     [@@unguarded "why"]   explicit opt-out for mutable state that is
                           confined to one domain; the reason string
                           keeps the exemption auditable.
     [@lock_wrapper lock]  on a function that runs its callback with
                           [lock] held (e.g. [with_lock]).
     [@requires_lock lock] on a function whose caller must already
                           hold [lock]; its body is checked as locked
                           and its call sites as callers.
     [@@borrow]            on a [val] (or local [let]) returning an
                           internal array/value that callers may read
                           but never mutate, store or re-export.
     [@@@no_boxed_floats]  floating, at the top of an implementation:
                           the module opts into the boxed-float-closure
                           check (hot-path modules whose loops must not
                           allocate). *)

let name (attr : Parsetree.attribute) = attr.attr_name.txt

let find id attrs = List.find_opt (fun a -> name a = id) attrs

(* Payload of the form [@attr ident] (possibly dotted: the lock's name
   is its last segment, so [@guarded_by state.lock] and
   [@guarded_by lock] agree). *)
let ident_payload (attr : Parsetree.attribute) =
  match attr.attr_payload with
  | PStr
      [ { pstr_desc =
            Pstr_eval ({ pexp_desc; _ }, _);
          _ } ] ->
    (let rec last_of = function
       | Parsetree.Pexp_ident { txt; _ } ->
         (match Longident.flatten txt with
          | [] -> None
          | segs -> Some (List.nth segs (List.length segs - 1)))
       | Pexp_field (_, { txt; _ }) ->
         (match Longident.flatten txt with
          | [] -> None
          | segs -> Some (List.nth segs (List.length segs - 1)))
       | Pexp_constraint (e, _) -> last_of e.pexp_desc
       | _ -> None
     in
     last_of pexp_desc)
  | _ -> None

let guarded_by attrs = Option.bind (find "guarded_by" attrs) ident_payload

let unguarded attrs = find "unguarded" attrs <> None

let borrow attrs = find "borrow" attrs <> None

let lock_wrapper attrs = Option.bind (find "lock_wrapper" attrs) ident_payload

let requires_lock attrs =
  Option.bind (find "requires_lock" attrs) ident_payload

(* Field annotations may sit on the label declaration or (writing the
   attribute directly after the type) on the core type — accept both. *)
let field_attrs (ld : Parsetree.label_declaration) =
  ld.pld_attributes @ ld.pld_type.ptyp_attributes

let no_boxed_floats (str : Parsetree.structure) =
  List.exists
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_attribute a -> name a = "no_boxed_floats"
      | _ -> false)
    str
