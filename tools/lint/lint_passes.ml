(* The annotation-driven passes: guarded-by lock discipline,
   borrow/escape, and boxed-float-closure.  All are syntactic
   (parsetree, not typedtree): they trade soundness-in-the-limit for
   zero build-time cost and no dependency on a type environment, and
   make up for it by keying on self-contained triggers — a module that
   creates a top-level Mutex.t (or a record type with a Mutex.t field)
   opts into the lock discipline; a [val] annotated [@@borrow] in an
   .mli opts its call sites into the alias rules; a top-level
   [@@@no_boxed_floats] opts a module into the boxed-float check.
   Known approximations are documented on each rule's --explain
   entry. *)

module StringSet = Set.Make (String)
module StringMap = Map.Make (String)

let finding ~file (loc : Location.t) rule message =
  {
    Lint_rules.file;
    line = loc.loc_start.pos_lnum;
    col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
    rule;
    severity = Lint_rules.rule_severity rule;
    message;
  }

(* --- Small parsetree helpers ----------------------------------------- *)

let rec unconstrain (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) -> unconstrain e
  | _ -> e

let rec pat_name (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> Some txt
  | Ppat_constraint (p, _) | Ppat_alias (p, _) -> pat_name p
  | _ -> None

let rec pat_names (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> [ txt ]
  | Ppat_alias (p, { txt; _ }) -> txt :: pat_names p
  | Ppat_constraint (p, _) | Ppat_open (_, p) | Ppat_lazy p
  | Ppat_exception p ->
    pat_names p
  | Ppat_tuple ps | Ppat_array ps -> List.concat_map pat_names ps
  | Ppat_construct (_, Some (_, p)) | Ppat_variant (_, Some p) -> pat_names p
  | Ppat_record (fields, _) ->
    List.concat_map (fun (_, p) -> pat_names p) fields
  | Ppat_or (a, b) -> pat_names a @ pat_names b
  | _ -> []

let last_seg = function
  | [] -> None
  | segs -> Some (List.nth segs (List.length segs - 1))

let ident_segs (e : Parsetree.expression) =
  match (unconstrain e).pexp_desc with
  | Pexp_ident { txt; _ } ->
    Some (Lint_rules.strip_stdlib (Lint_rules.flatten txt))
  | _ -> None

let apply_head_segs (e : Parsetree.expression) =
  match (unconstrain e).pexp_desc with
  | Pexp_apply (head, args) ->
    (match ident_segs head with
    | Some segs -> Some (segs, args)
    | None -> None)
  | _ -> None

(* The lock named by a [Mutex.lock <e>] argument or an attribute
   payload: an identifier's or field access's last segment, so
   [state.lock] and [lock] both name "lock". *)
let lock_name_of_expr (e : Parsetree.expression) =
  match (unconstrain e).pexp_desc with
  | Pexp_ident { txt; _ } -> last_seg (Lint_rules.flatten txt)
  | Pexp_field (_, { txt; _ }) -> last_seg (Lint_rules.flatten txt)
  | _ -> None

let nolabel_arg n args =
  let rec go n = function
    | [] -> None
    | (Asttypes.Nolabel, a) :: rest -> if n = 0 then Some a else go (n - 1) rest
    | _ :: rest -> go n rest
  in
  go n args

(* Iterate exactly one structural level: every direct child expression
   of [e] goes through [f]; [f] then recurses itself.  This keeps the
   scoped environments of the passes while inheriting exhaustive child
   coverage from Ast_iterator. *)
let iter_children f (e : Parsetree.expression) =
  let it =
    { Ast_iterator.default_iterator with expr = (fun _ child -> f child) }
  in
  Ast_iterator.default_iterator.expr it e

let is_function (e : Parsetree.expression) =
  match (unconstrain e).pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | _ -> false

(* ===================================================================== *)
(* Guarded-by: lock discipline for modules that own a mutex.             *)
(* ===================================================================== *)

type guard_info = {
  mutable mutexes : StringSet.t;        (* top-level Mutex.create bindings *)
  mutable guarded : string StringMap.t; (* top-level name -> lock *)
  mutable field_guards : string StringMap.t; (* record field -> lock *)
  mutable wrappers : string StringMap.t; (* fn name -> lock it wraps *)
  mutable requires : string StringMap.t; (* fn name -> lock callers hold *)
}

let mutable_creator segs =
  match segs with
  | [ "ref" ]
  | [ ("Hashtbl" | "Queue" | "Stack" | "Buffer" | "Dynarray"); "create" ] ->
    true
  | _ -> false

let type_ends_with (ct : Parsetree.core_type) suffix =
  match ct.ptyp_desc with
  | Ptyp_constr ({ txt; _ }, _) ->
    let segs = Lint_rules.strip_stdlib (Lint_rules.flatten txt) in
    let n = List.length segs and m = List.length suffix in
    n >= m && List.filteri (fun i _ -> i >= n - m) segs = suffix
  | _ -> false

let container_type (ct : Parsetree.core_type) =
  type_ends_with ct [ "ref" ]
  || List.exists
       (fun m -> type_ends_with ct [ m; "t" ])
       [ "Hashtbl"; "Queue"; "Stack"; "Buffer"; "Dynarray" ]

let is_mutex_create (e : Parsetree.expression) =
  match apply_head_segs e with
  | Some ([ "Mutex"; "create" ], _) -> true
  | _ -> false

(* Collection: one walk over the structure (recursing into nested
   modules) filling [guard_info] and recording the unannotated mutable
   top-level bindings, which become findings iff the module turns out
   to be lock-bearing. *)
let collect_guard_info ~file (str : Parsetree.structure) =
  let info =
    {
      mutexes = StringSet.empty;
      guarded = StringMap.empty;
      field_guards = StringMap.empty;
      wrappers = StringMap.empty;
      requires = StringMap.empty;
    }
  in
  let pending = ref [] in (* unannotated mutable tops: (name, loc) *)
  let acc = ref [] in
  let record_locks = ref StringSet.empty in (* Mutex.t field names *)
  let field_pending = ref [] in
  let rec item (si : Parsetree.structure_item) =
    match si.pstr_desc with
    | Pstr_value (_, vbs) ->
      List.iter
        (fun (vb : Parsetree.value_binding) ->
          match pat_name vb.pvb_pat with
          | None -> ()
          | Some name ->
            let attrs = vb.pvb_attributes in
            (match Lint_annot.lock_wrapper attrs with
            | Some l -> info.wrappers <- StringMap.add name l info.wrappers
            | None -> ());
            (match Lint_annot.requires_lock attrs with
            | Some l -> info.requires <- StringMap.add name l info.requires
            | None -> ());
            let rhs = unconstrain vb.pvb_expr in
            if is_mutex_create rhs then
              info.mutexes <- StringSet.add name info.mutexes
            else begin
              match Lint_annot.guarded_by attrs with
              | Some l ->
                info.guarded <- StringMap.add name l info.guarded;
                pending :=
                  List.filter (fun (n, _) -> n <> name) !pending
              | None ->
                if
                  (not (Lint_annot.unguarded attrs))
                  && (match apply_head_segs rhs with
                     | Some (segs, _) -> mutable_creator segs
                     | None -> false)
                then pending := (name, vb.pvb_loc) :: !pending
            end)
        vbs
    | Pstr_type (_, decls) ->
      List.iter
        (fun (d : Parsetree.type_declaration) ->
          match d.ptype_kind with
          | Ptype_record lds ->
            let locks =
              List.filter_map
                (fun (ld : Parsetree.label_declaration) ->
                  if type_ends_with ld.pld_type [ "Mutex"; "t" ] then
                    Some ld.pld_name.txt
                  else None)
                lds
            in
            if locks <> [] then begin
              record_locks :=
                List.fold_left
                  (fun s l -> StringSet.add l s)
                  !record_locks locks;
              List.iter
                (fun (ld : Parsetree.label_declaration) ->
                  if not (List.mem ld.pld_name.txt locks) then begin
                    let attrs = Lint_annot.field_attrs ld in
                    match Lint_annot.guarded_by attrs with
                    | Some l ->
                      info.field_guards <-
                        StringMap.add ld.pld_name.txt l info.field_guards;
                      if not (List.mem l locks) then
                        acc :=
                          finding ~file ld.pld_loc "guarded-by"
                            (Printf.sprintf
                               "[@guarded_by %s] on field '%s' names no \
                                Mutex.t field of this record"
                               l ld.pld_name.txt)
                          :: !acc
                    | None ->
                      if
                        (not (Lint_annot.unguarded attrs))
                        && (ld.pld_mutable = Mutable
                           || container_type ld.pld_type)
                      then
                        field_pending :=
                          (ld.pld_name.txt, d.ptype_name.txt, ld.pld_loc)
                          :: !field_pending
                  end)
                lds
            end
          | _ -> ())
        decls
    | Pstr_module
        { pmb_expr = { pmod_desc = Pmod_structure sub; _ }; _ } ->
      List.iter item sub
    | _ -> ()
  in
  List.iter item str;
  (* Lock-bearing module: unannotated mutable top-level state is an
     error.  Also validate that [@@guarded_by] names a real mutex. *)
  if not (StringSet.is_empty info.mutexes) then
    List.iter
      (fun (name, loc) ->
        acc :=
          finding ~file loc "guarded-by"
            (Printf.sprintf
               "top-level mutable binding '%s' in a lock-bearing module \
                must carry [@@guarded_by <lock>] or [@@unguarded \
                \"reason\"]"
               name)
          :: !acc)
      (List.rev !pending);
  StringMap.iter
    (fun name l ->
      if not (StringSet.mem l info.mutexes) then
        acc :=
          finding ~file Location.none "guarded-by"
            (Printf.sprintf
               "[@@guarded_by %s] on '%s' names no top-level Mutex.t of \
                this module"
               l name)
          :: !acc)
    info.guarded;
  List.iter
    (fun (fname, tname, loc) ->
      acc :=
        finding ~file loc "guarded-by"
          (Printf.sprintf
             "field '%s' of lock-bearing record type '%s' must carry \
              [@guarded_by <lock>] or [@unguarded \"reason\"]"
             fname tname)
        :: !acc)
    (List.rev !field_pending);
  (info, List.rev !acc)

(* Access check: [held] is the set of lock names syntactically held at
   the current program point. *)
let check_guard_accesses ~file info (str : Parsetree.structure) =
  let acc = ref [] in
  let flag loc what lock =
    acc :=
      finding ~file loc "guarded-by"
        (Printf.sprintf
           "%s is [@@guarded_by %s] but this access does not hold '%s' \
            (use Mutex.lock/Mutex.protect or a [@lock_wrapper] function)"
           what lock lock)
      :: !acc
  in
  let rec walk held (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_ident { txt = Lident n; _ } ->
      (match StringMap.find_opt n info.guarded with
      | Some l when not (List.mem l held) ->
        flag e.pexp_loc (Printf.sprintf "'%s'" n) l
      | _ -> ())
    | Pexp_field (obj, { txt; _ }) ->
      (match last_seg (Lint_rules.flatten txt) with
      | Some f ->
        (match StringMap.find_opt f info.field_guards with
        | Some l when not (List.mem l held) ->
          flag e.pexp_loc (Printf.sprintf "field '%s'" f) l
        | _ -> ())
      | None -> ());
      walk held obj
    | Pexp_setfield (obj, { txt; _ }, v) ->
      (match last_seg (Lint_rules.flatten txt) with
      | Some f ->
        (match StringMap.find_opt f info.field_guards with
        | Some l when not (List.mem l held) ->
          flag e.pexp_loc (Printf.sprintf "field '%s'" f) l
        | _ -> ())
      | None -> ());
      walk held obj;
      walk held v
    | Pexp_sequence (a, b) ->
      walk held a;
      let held =
        match apply_head_segs a with
        | Some ([ "Mutex"; "lock" ], args) ->
          (match nolabel_arg 0 args with
          | Some m ->
            (match lock_name_of_expr m with
            | Some l -> l :: held
            | None -> held)
          | None -> held)
        | Some ([ "Mutex"; "unlock" ], args) ->
          (match nolabel_arg 0 args with
          | Some m ->
            (match lock_name_of_expr m with
            | Some l ->
              let rec drop = function
                | [] -> []
                | x :: r -> if x = l then r else x :: drop r
              in
              drop held
            | None -> held)
          | None -> held)
        | _ -> held
      in
      walk held b
    | Pexp_apply (head, args) -> (
      match ident_segs head with
      | Some [ "Mutex"; "protect" ] ->
        (match (nolabel_arg 0 args, nolabel_arg 1 args) with
        | Some m, Some f ->
          walk held m;
          let held' =
            match lock_name_of_expr m with
            | Some l -> l :: held
            | None -> held
          in
          walk held' f
        | _ ->
          walk held head;
          List.iter (fun (_, a) -> walk held a) args)
      | Some [ n ] when StringMap.mem n info.wrappers ->
        let l = StringMap.find n info.wrappers in
        List.iter
          (fun (_, a) ->
            if is_function a then walk (l :: held) a else walk held a)
          args
      | Some [ n ] when StringMap.mem n info.requires ->
        let l = StringMap.find n info.requires in
        if not (List.mem l held) then
          acc :=
            finding ~file e.pexp_loc "guarded-by"
              (Printf.sprintf
                 "call to '%s' ([@requires_lock %s]) outside a region \
                  holding '%s'"
                 n l l)
            :: !acc;
        walk held head;
        List.iter (fun (_, a) -> walk held a) args
      | _ ->
        walk held head;
        List.iter (fun (_, a) -> walk held a) args)
    | _ -> iter_children (walk held) e
  in
  let rec item (si : Parsetree.structure_item) =
    match si.pstr_desc with
    | Pstr_value (_, vbs) ->
      List.iter
        (fun (vb : Parsetree.value_binding) ->
          let held =
            match Lint_annot.requires_lock vb.pvb_attributes with
            | Some l -> [ l ]
            | None -> []
          in
          walk held vb.pvb_expr)
        vbs
    | Pstr_eval (e, _) -> walk [] e
    | Pstr_module
        { pmb_expr = { pmod_desc = Pmod_structure sub; _ }; _ } ->
      List.iter item sub
    | _ -> ()
  in
  List.iter item str;
  List.rev !acc

let guarded_by_pass ~file str =
  let info, decl_findings = collect_guard_info ~file str in
  let relevant =
    (not (StringSet.is_empty info.mutexes))
    || not (StringMap.is_empty info.field_guards)
    || not (StringMap.is_empty info.requires)
  in
  if relevant then decl_findings @ check_guard_accesses ~file info str
  else decl_findings

(* ===================================================================== *)
(* Borrow/escape: [@@borrow] accessors hand out aliases, not copies.     *)
(* ===================================================================== *)

type registry = (string * string, unit) Hashtbl.t

let create_registry () : registry = Hashtbl.create 32

let rec scan_signature (reg : registry) ~module_name
    (sg : Parsetree.signature) =
  List.iter
    (fun (si : Parsetree.signature_item) ->
      match si.psig_desc with
      | Psig_value vd ->
        if Lint_annot.borrow vd.pval_attributes then
          Hashtbl.replace reg (module_name, vd.pval_name.txt) ()
      | Psig_module
          {
            pmd_name = { txt = Some sub; _ };
            pmd_type = { pmty_desc = Pmty_signature sg'; _ };
            _;
          } ->
        scan_signature reg ~module_name:sub sg'
      | _ -> ())
    sg

type exports = (string, bool) Hashtbl.t
(* exported top-level val name -> annotated [@@borrow]? *)

let exports_of_signature (sg : Parsetree.signature) : exports =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (si : Parsetree.signature_item) ->
      match si.psig_desc with
      | Psig_value vd ->
        Hashtbl.replace tbl vd.pval_name.txt
          (Lint_annot.borrow vd.pval_attributes)
      | _ -> ())
    sg;
  tbl

(* Does this expression call a borrow accessor?  Qualified calls match
   the registry on their last two segments (so [Instance.Packed.start],
   [Packed.start] and [Dijkstra.row] all resolve); unqualified calls
   match only local [let[@borrow]] bindings of the same file. *)
let is_borrow_call local_borrows (reg : registry) (e : Parsetree.expression) =
  match apply_head_segs e with
  | Some ([ f ], _) -> StringSet.mem f local_borrows
  | Some (segs, _) -> (
    let n = List.length segs in
    if n >= 2 then
      Hashtbl.mem reg (List.nth segs (n - 2), List.nth segs (n - 1))
    else false)
  | None -> false

let collect_local_borrows (str : Parsetree.structure) =
  let set = ref StringSet.empty in
  let rec item (si : Parsetree.structure_item) =
    match si.pstr_desc with
    | Pstr_value (_, vbs) ->
      List.iter
        (fun (vb : Parsetree.value_binding) ->
          if Lint_annot.borrow vb.pvb_attributes then
            match pat_name vb.pvb_pat with
            | Some n -> set := StringSet.add n !set
            | None -> ())
        vbs
    | Pstr_module
        { pmb_expr = { pmod_desc = Pmod_structure sub; _ }; _ } ->
      List.iter item sub
    | _ -> ()
  in
  List.iter item str;
  !set

(* Every name ever let-bound to a borrow call, file-wide and
   scope-insensitive; used only for the return-escape check, where the
   over-approximation is harmless in practice. *)
let collect_borrowed_names local_borrows reg (str : Parsetree.structure) =
  let set = ref StringSet.empty in
  let note (vb : Parsetree.value_binding) =
    if is_borrow_call local_borrows reg vb.pvb_expr then
      List.iter (fun n -> set := StringSet.add n !set) (pat_names vb.pvb_pat)
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun iter e ->
          (match e.pexp_desc with
          | Pexp_let (_, vbs, _) -> List.iter note vbs
          | _ -> ());
          Ast_iterator.default_iterator.expr iter e);
      value_binding =
        (fun iter vb ->
          note vb;
          Ast_iterator.default_iterator.value_binding iter vb);
    }
  in
  it.structure it str;
  !set

let borrow_pass ~file ~(registry : registry) ~(exports : exports option)
    (str : Parsetree.structure) =
  let local_borrows = collect_local_borrows str in
  let acc = ref [] in
  let flag loc msg = acc := finding ~file loc "borrow-escape" msg :: !acc in
  let borrowed env (e : Parsetree.expression) =
    match (unconstrain e).pexp_desc with
    | Pexp_ident { txt = Lident n; _ } -> StringSet.mem n env
    | _ -> is_borrow_call local_borrows registry e
  in
  let rec walk env (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_let (_, vbs, body) ->
      List.iter (fun (vb : Parsetree.value_binding) -> walk env vb.pvb_expr) vbs;
      let env =
        List.fold_left
          (fun env (vb : Parsetree.value_binding) ->
            let names = pat_names vb.pvb_pat in
            if borrowed env vb.pvb_expr then
              List.fold_left (fun e n -> StringSet.add n e) env names
            else List.fold_left (fun e n -> StringSet.remove n e) env names)
          env vbs
      in
      walk env body
    | Pexp_fun (_, default, pat, body) ->
      Option.iter (walk env) default;
      let env =
        List.fold_left
          (fun e n -> StringSet.remove n e)
          env (pat_names pat)
      in
      walk env body
    | Pexp_function cases -> List.iter (case env) cases
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
      walk env scrut;
      List.iter (case env) cases
    | Pexp_for (pat, lo, hi, _, body) ->
      walk env lo;
      walk env hi;
      let env =
        List.fold_left
          (fun e n -> StringSet.remove n e)
          env (pat_names pat)
      in
      walk env body
    | Pexp_setfield (obj, _, v) ->
      if borrowed env v then
        flag e.pexp_loc
          "borrowed value stored into a mutable field; Array.copy it \
           first (the borrow aliases its owner's internal state)";
      walk env obj;
      walk env v
    | Pexp_apply (head, args) ->
      (match ident_segs head with
      | Some segs -> (
        let write_target =
          match segs with
          | [ ("Array" | "Bytes" | "Float" | "Floatarray");
              ("set" | "unsafe_set" | "fill") ] ->
            Some (0, "write to borrowed array")
          | [ ("Array" | "Bytes"); "blit" ] ->
            Some (2, "blit into borrowed array")
          (* Bigarray substrate: Fbuf wraps Bigarray.Array1, and both
             spellings mutate their first argument in place — a write
             through a [@@borrow] view is the same escape as an
             Array.set.  (Fbuf.blit/blit_from_array write the
             destination, which is argument 2.) *)
          | [ "Fbuf"; ("set" | "unsafe_set" | "fill") ]
          | [ "Geometry"; "Fbuf"; ("set" | "unsafe_set" | "fill") ]
          | [ "Array1"; ("set" | "unsafe_set" | "fill") ]
          | [ "Bigarray"; "Array1"; ("set" | "unsafe_set" | "fill") ] ->
            Some (0, "write to borrowed Bigarray buffer")
          | [ "Fbuf"; ("blit" | "blit_from_array") ]
          | [ "Geometry"; "Fbuf"; ("blit" | "blit_from_array") ] ->
            Some (2, "blit into borrowed Bigarray buffer")
          | [ "Array1"; "blit" ] | [ "Bigarray"; "Array1"; "blit" ] ->
            Some (1, "blit into borrowed Bigarray buffer")
          | _ -> None
        in
        (match write_target with
        | Some (idx, what) -> (
          match nolabel_arg idx args with
          | Some a when borrowed env a ->
            flag e.pexp_loc
              (what
             ^ "; it aliases its owner's internal state — Array.copy \
                before mutating")
          | _ -> ())
        | None -> ());
        match segs with
        | [ ":=" ] -> (
          match nolabel_arg 1 args with
          | Some v when borrowed env v ->
            flag e.pexp_loc
              "borrowed value stored into a ref; Array.copy it first \
               (the borrow aliases its owner's internal state)"
          | _ -> ())
        | _ -> ())
      | None -> ());
      walk env head;
      List.iter (fun (_, a) -> walk env a) args
    | _ -> iter_children (walk env) e
  and case env (c : Parsetree.case) =
    let env =
      List.fold_left
        (fun e n -> StringSet.remove n e)
        env (pat_names c.pc_lhs)
    in
    Option.iter (walk env) c.pc_guard;
    walk env c.pc_rhs
  in
  let rec item (si : Parsetree.structure_item) =
    match si.pstr_desc with
    | Pstr_value (_, vbs) ->
      List.iter
        (fun (vb : Parsetree.value_binding) -> walk StringSet.empty vb.pvb_expr)
        vbs
    | Pstr_eval (e, _) -> walk StringSet.empty e
    | Pstr_module
        { pmb_expr = { pmod_desc = Pmod_structure sub; _ }; _ } ->
      List.iter item sub
    | _ -> ()
  in
  List.iter item str;
  (* Return-escape: a public (exported, non-[@@borrow]) function whose
     tail position hands back a borrow re-exports the alias under a
     signature that does not warn about it. *)
  (match exports with
  | None -> ()
  | Some exports ->
    let borrowed_names = collect_borrowed_names local_borrows registry str in
    let rec tails (e : Parsetree.expression) =
      match (unconstrain e).pexp_desc with
      | Pexp_fun (_, _, _, b) | Pexp_newtype (_, b) -> tails b
      | Pexp_let (_, _, b)
      | Pexp_sequence (_, b)
      | Pexp_open (_, b)
      | Pexp_letmodule (_, _, b) ->
        tails b
      | Pexp_ifthenelse (_, t, f) ->
        tails t @ (match f with Some f -> tails f | None -> [])
      | Pexp_match (_, cases) | Pexp_try (_, cases) ->
        List.concat_map (fun (c : Parsetree.case) -> tails c.pc_rhs) cases
      | _ -> [ e ]
    in
    let escapes (e : Parsetree.expression) =
      let direct (e : Parsetree.expression) =
        match (unconstrain e).pexp_desc with
        | Pexp_ident { txt = Lident n; _ } -> StringSet.mem n borrowed_names
        | _ -> is_borrow_call local_borrows registry e
      in
      match (unconstrain e).pexp_desc with
      | Pexp_tuple es -> List.exists direct es
      | _ -> direct e
    in
    List.iter
      (fun (si : Parsetree.structure_item) ->
        match si.pstr_desc with
        | Pstr_value (_, vbs) ->
          List.iter
            (fun (vb : Parsetree.value_binding) ->
              match pat_name vb.pvb_pat with
              | Some name
                when Hashtbl.find_opt exports name = Some false
                     && not (Lint_annot.borrow vb.pvb_attributes) ->
                List.iter
                  (fun t ->
                    if escapes t then
                      flag t.Parsetree.pexp_loc
                        (Printf.sprintf
                           "public function '%s' returns a borrowed \
                            value without copy; Array.copy it or \
                            annotate the val [@@borrow] in the .mli"
                           name))
                  (tails vb.pvb_expr)
              | _ -> ())
            vbs
        | _ -> ())
      str);
  List.rev !acc

(* ===================================================================== *)
(* Boxed-float-closure: float refs updated by a function that does not   *)
(* own them, in modules that opt in with [@@@no_boxed_floats].           *)
(* ===================================================================== *)

let float_valued_float_fn = function
  | "abs" | "max" | "min" | "neg" | "add" | "sub" | "mul" | "div" | "rem"
  | "pow" | "sqrt" | "exp" | "log" | "fma" | "of_int" | "hypot" ->
    true
  | _ -> false

(* Float arithmetic on the right of [:=]: the shared float evidence, or
   a float-valued [Float.*] / [float_of_int] call. *)
let float_rhs (e : Parsetree.expression) =
  Lint_rules.is_float_evidence e
  ||
  match apply_head_segs e with
  | Some ([ "Float"; fn ], _) -> float_valued_float_fn fn
  | Some ([ ("float_of_int" | "float") ], _) -> true
  | _ -> false

let is_ref_creation (e : Parsetree.expression) =
  match apply_head_segs e with Some ([ "ref" ], _) -> true | _ -> false

let boxed_float_pass ~file (str : Parsetree.structure) =
  let acc = ref [] in
  let flag (loc : Location.t) name =
    acc :=
      finding ~file loc "boxed-float-closure"
        (Printf.sprintf
           "float ref '%s' is updated inside a function that does not \
            bind it: the captured ref boxes every update; use a for/while \
            loop or bind the ref in this function"
           name)
      :: !acc
  in
  (* [owned] holds the refs bound by [let x = ref ...] in the innermost
     enclosing function; [None] is module initialisation code. *)
  let rec walk owned (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_function _ -> walk_function e
    | Pexp_let (_, vbs, body) ->
      List.iter
        (fun (vb : Parsetree.value_binding) ->
          walk owned vb.pvb_expr;
          match (owned, pat_name vb.pvb_pat) with
          | Some set, Some name when is_ref_creation vb.pvb_expr ->
            set := StringSet.add name !set
          | _ -> ())
        vbs;
      walk owned body
    | Pexp_apply (head, [ (_, lhs); (_, rhs) ])
      when ident_segs head = Some [ ":=" ] ->
      (match (owned, ident_segs lhs) with
      | Some set, Some [ name ]
        when float_rhs rhs && not (StringSet.mem name !set) ->
        flag e.pexp_loc name
      | _ -> ());
      iter_children (walk owned) e
    | _ -> iter_children (walk owned) e
  (* A curried chain [fun a -> fun b -> function ...] is one function:
     one owned set for the whole chain. *)
  and walk_function e =
    let owned = Some (ref StringSet.empty) in
    let rec chain (e : Parsetree.expression) =
      match e.pexp_desc with
      | Pexp_fun (_, default, _, body) ->
        Option.iter (walk owned) default;
        chain body
      | Pexp_function cases ->
        List.iter
          (fun (c : Parsetree.case) ->
            Option.iter (walk owned) c.pc_guard;
            walk owned c.pc_rhs)
          cases
      | _ -> walk owned e
    in
    chain e
  in
  if Lint_annot.no_boxed_floats str then begin
    let it =
      { Ast_iterator.default_iterator with expr = (fun _ e -> walk None e) }
    in
    it.structure it str
  end;
  List.rev !acc

(* --- Combined entry point -------------------------------------------- *)

let check_structure ~file ~registry ~exports str =
  guarded_by_pass ~file str
  @ borrow_pass ~file ~registry ~exports str
  @ boxed_float_pass ~file str
