type file_kind = Library | Prng_library | Driver | Tool

type severity = Error | Warning

let severity_name = function Error -> "error" | Warning -> "warning"

type finding = {
  file : string;
  line : int;
  col : int;
  rule : string;
  severity : severity;
  message : string;
}

type rule = {
  id : string;
  summary : string;
  severity : severity;
  explain : string;
}

let rules =
  [
    {
      id = "determinism-random";
      summary = "Stdlib.Random is forbidden outside lib/prng";
      severity = Error;
      explain =
        "Every simulated run must replay bit-for-bit from a seed: the \
         paper's measurements (and the Yao-principle averages) are only \
         reproducible if all entropy flows through the Prng streams that \
         experiments derive from (name, seed) pairs.  Stdlib.Random is \
         global, shared and seeded from the environment, so a single call \
         anywhere silently breaks replay.  Use Prng.Stream / Prng.Dist and \
         thread the generator explicitly.";
    };
    {
      id = "missing-mli";
      summary = "every module under lib/ must have an .mli";
      severity = Error;
      explain =
        "Interfaces are where invariants are documented and where private \
         types (Config.t, Instance.t) stay private.  A lib/ module without \
         an .mli exports every helper and every mutable detail, which the \
         rest of the tree then silently depends on.";
    };
    {
      id = "float-poly-eq";
      summary = "no polymorphic =/<>/compare on float evidence";
      severity = Error;
      explain =
        "Polymorphic equality on floats is a bug magnet: nan = nan is \
         false, 0. = -0. is true, and the polymorphic compare function \
         orders nan inconsistently with (<).  Use Float.equal, \
         Float.compare, or Vec.equal (which takes a tolerance) instead.  \
         The check is syntactic: it fires when an argument of = / <> / == \
         / != / compare is a float literal, nan/infinity, or a float \
         arithmetic expression.";
    };
    {
      id = "obj-magic";
      summary = "Obj.magic is forbidden";
      severity = Error;
      explain =
        "Obj.magic defeats the type system; in this codebase there is no \
         FFI or serialization trick that needs it, so any use is either a \
         bug or a future bug.";
    };
    {
      id = "lib-exit";
      summary = "no exit in library code";
      severity = Error;
      explain =
        "Library code must report errors to its caller (raise \
         Invalid_argument, return a result); calling exit from lib/ kills \
         the whole process of any embedding application — including the \
         test runner.  Only executables (bin/, bench/, examples/, tools/) \
         may exit.";
    };
    {
      id = "io-stdout";
      summary = "no direct stdout printing in library code";
      severity = Error;
      explain =
        "Printf.printf / print_endline / Format.printf in lib/ write to \
         the process's stdout, which corrupts machine-readable output \
         (CSV, tables) and cannot be captured by embedders.  Return \
         strings, take a Format.formatter argument, or log through Logs.  \
         Deliberate terminal-rendering modules may suppress per line with \
         (* msp-lint: allow io-stdout *).";
    };
    {
      id = "nan-source";
      summary = "no bare float_of_string or literal /. 0.";
      severity = Error;
      explain =
        "float_of_string accepts \"nan\" and \"inf\" and raises on \
         garbage, so parsed input can smuggle non-finite values into cost \
         accounting (the auditor's Non_finite_* violations).  Parse with \
         float_of_string_opt and keep only results that pass \
         Float.is_finite, or carry floats as IEEE-754 bits as the \
         Opt_cache disk store does.  Similarly a literal division by 0. \
         is a guaranteed inf/nan factory.";
    };
    {
      id = "guarded-by";
      summary = "mutable state in lock-bearing modules must be annotated \
                 and accessed under its lock";
      severity = Error;
      explain =
        "The experiment engine calls library code from worker domains \
         (lib/exec), so shared mutable state is only safe behind a mutex. \
         Any module that creates a top-level Mutex.t — or a record type \
         with a Mutex.t field — opts into the lock discipline: every \
         top-level ref/Hashtbl/Queue (resp. every mutable or container \
         field of that record) must carry [@@guarded_by <lock>] naming \
         the mutex, or [@@unguarded \"reason\"] when it is confined to \
         one domain.  Every access to guarded state must then sit \
         syntactically inside a region that holds the lock: after \
         [Mutex.lock <lock>] in the same sequence, inside the callback of \
         [Mutex.protect] or of a [@lock_wrapper <lock>] function, or in \
         the body of a [@requires_lock <lock>] function (whose call sites \
         are in turn checked).  Unguarded access is a hard error — it is \
         exactly the race the mutex was created to prevent.  The check is \
         syntactic: a closure built under the lock but called after \
         release will not be caught; keep lock regions straight-line.";
    };
    {
      id = "borrow-escape";
      summary = "borrowed arrays are read-only and must not escape";
      severity = Error;
      explain =
        "Zero-copy accessors ([@@borrow] on the val: Graph.csr, \
         Dijkstra.row / dense_table, Points.raw, Instance.Packed.start / \
         points) hand out the owner's internal arrays, not copies.  \
         Writing through such a borrow corrupts every other reader — \
         cached metric rows, content-addressed cache keys, packed \
         instances — and storing it in a mutable field or returning it \
         across a public interface extends the alias invisibly.  The \
         pass flags writes (Array.set/fill/blit/unsafe_set, Bytes.*) to \
         a borrowed value, stores of a borrow into a ref or mutable \
         field, and public functions whose tail returns a borrow without \
         copying (annotate the val [@@borrow] if handing out the borrow \
         is the contract).  Take Array.copy / Array.sub first when you \
         need an owned value.";
    };
    {
      id = "determinism-clock";
      summary = "no wall-clock reads in library or tool code";
      severity = Error;
      explain =
        "Unix.gettimeofday, Unix.time and Sys.time depend on when a run \
         happens, so any value derived from them cannot replay \
         bit-for-bit and silently poisons cache keys, seeds or reported \
         numbers.  Library and tool code must take time as an input if \
         it needs one; only drivers (bin/, bench/, examples/) may read \
         the clock, and only for wall-time reporting that is not part of \
         a result.";
    };
    {
      id = "determinism-env";
      summary = "no environment reads outside the documented MSP_* knobs";
      severity = Error;
      explain =
        "Sys.getenv makes a run's output depend on invisible ambient \
         state — the exact failure mode seeded replay exists to prevent. \
         The only sanctioned environment points are the documented MSP_* \
         configuration variables (e.g. MSP_OPT_CACHE_DIR), read with a \
         literal \"MSP_\"-prefixed name so the lint can verify the \
         allowance; anything else (HOME, PATH, locale...) must arrive as \
         an explicit argument from the driver.";
    };
    {
      id = "boxed-float-closure";
      summary = "in [@@@no_boxed_floats] modules, no float ref updated \
                 from a function that does not bind it";
      severity = Error;
      explain =
        "A float ref captured by a closure is a heap cell holding a boxed \
         float, so every [x := <float arithmetic>] inside the closure \
         allocates a fresh box: Median.weiszfeld's [inv_sum] did this \
         once per point per iteration.  A ref bound by [let x = ref ...] \
         in the same function as its updates, and not captured, compiles \
         to an unboxed local.  The rule fires on [x := e] inside a [fun] \
         or [function] when [e] is float arithmetic (a float literal or \
         constant, a float operator, or a float-valued Float.* call) and \
         [x] is not bound by a [let ... = ref] in that same function \
         (a curried [fun a b ->] chain counts as one function; module \
         initialisation code is never flagged).  Rewrite the closure as \
         a [for]/[while] loop, or bind the ref inside the closure.  It \
         runs only in modules that opt in with a top-level \
         [@@@no_boxed_floats] (the hot-path modules).  The check is \
         syntactic: a float returned across a module boundary, which \
         boxes without flambda, needs typed trees and is not caught.";
    };
    {
      id = "determinism-hashtbl-order";
      summary = "Hashtbl.iter/fold order is unspecified; library code \
                 must not depend on it";
      severity = Warning;
      explain =
        "Hashtbl iteration order depends on the hash function, insertion \
         history and resizing, none of which are part of the replay \
         contract — an iter/fold whose effect or accumulator is \
         order-sensitive yields runs that differ between executions with \
         identical seeds.  In library code, either iterate sorted keys, \
         or make the reduction provably order-independent (a pure \
         min/max/sum with a total tiebreak) and document it with a \
         suppression.  The rule flags every Hashtbl.iter/Hashtbl.fold in \
         lib/ because the analyzer cannot see which reductions commute.";
    };
  ]

let find_rule id = List.find_opt (fun r -> r.id = id) rules

let rule_severity id =
  match find_rule id with Some r -> r.severity | None -> Error

(* --- AST helpers ---------------------------------------------------- *)

let flatten lid = try Longident.flatten lid with Misc.Fatal_error -> []

let strip_stdlib = function "Stdlib" :: rest -> rest | l -> l

let float_ident = function
  | [ ("nan" | "infinity" | "neg_infinity" | "epsilon_float" | "max_float"
      | "min_float") ] ->
    true
  | [ "Float";
      ("nan" | "infinity" | "neg_infinity" | "pi" | "epsilon" | "max_float"
      | "min_float") ] ->
    true
  | _ -> false

let float_operator = function
  | [ ("+." | "-." | "*." | "/." | "**" | "sqrt" | "exp" | "log") ] -> true
  | _ -> false

let rec is_float_evidence (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_ident { txt; _ } -> float_ident (strip_stdlib (flatten txt))
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
    float_operator (strip_stdlib (flatten txt))
  | Pexp_constraint (inner, _) -> is_float_evidence inner
  | _ -> false

let is_zero_float_literal lit =
  match float_of_string_opt lit with
  | Some f -> Float.equal f 0.0
  | None -> false

(* --- The iterator --------------------------------------------------- *)

type ctx = {
  kind : file_kind;
  file : string;
  mutable acc : finding list;  (* reversed *)
  (* Idents vetted by an enclosing application (e.g. the head of
     [Sys.getenv_opt "MSP_..."]) that the per-ident check must skip. *)
  mutable vetted : Location.t list;
}

let add ctx (loc : Location.t) rule message =
  ctx.acc <-
    {
      file = ctx.file;
      line = loc.loc_start.pos_lnum;
      col = loc.loc_start.pos_cnum - loc.loc_start.pos_bol;
      rule;
      severity = rule_severity rule;
      message;
    }
    :: ctx.acc

let in_library ctx =
  match ctx.kind with
  | Library | Prng_library -> true
  | Driver | Tool -> false

(* Library and tool code must be deterministic; drivers may time and
   read ad-hoc environment for reporting. *)
let deterministic_scope ctx =
  match ctx.kind with
  | Library | Prng_library | Tool -> true
  | Driver -> false

let stdout_printer = function
  | [ "Printf"; "printf" ] | [ "Format"; "printf" ] -> true
  | [ ("print_endline" | "print_string" | "print_newline" | "print_char"
      | "print_int" | "print_float" | "print_bytes") ] ->
    true
  | _ -> false

let clock_reader = function
  | [ "Unix"; ("gettimeofday" | "time") ] | [ "Sys"; "time" ] -> true
  | _ -> false

let env_reader = function
  | [ "Sys"; ("getenv" | "getenv_opt") ]
  | [ "Unix"; ("getenv" | "environment") ] ->
    true
  | _ -> false

let check_ident ctx (loc : Location.t) path =
  match strip_stdlib path with
  | "Random" :: _ when ctx.kind <> Prng_library ->
    add ctx loc "determinism-random"
      "Stdlib.Random breaks seeded replay; use Prng.Stream / Prng.Dist"
  | [ "Obj"; "magic" ] ->
    add ctx loc "obj-magic" "Obj.magic defeats the type system"
  | [ "exit" ] when in_library ctx ->
    add ctx loc "lib-exit"
      "library code must not exit the process; raise or return a result"
  | [ "float_of_string" ] ->
    add ctx loc "nan-source"
      "float_of_string accepts \"nan\"/\"inf\"; use float_of_string_opt \
       and check Float.is_finite"
  | p when deterministic_scope ctx && clock_reader p ->
    add ctx loc "determinism-clock"
      "wall-clock reads break seeded replay; take time as an input (only \
       drivers may read the clock)"
  | p when deterministic_scope ctx && env_reader p
           && not (List.memq loc ctx.vetted) ->
    add ctx loc "determinism-env"
      "environment reads outside the documented MSP_* knobs make runs \
       depend on ambient state; pass the value in from the driver"
  | [ "Hashtbl"; ("iter" | "fold") ] when in_library ctx ->
    add ctx loc "determinism-hashtbl-order"
      "Hashtbl iteration order is unspecified; iterate sorted keys or \
       make the reduction order-independent (and document it with a \
       suppression)"
  | p when in_library ctx && stdout_printer p ->
    add ctx loc "io-stdout"
      "library code must not print to stdout; take a formatter or return \
       a string"
  | _ -> ()

let equality_like = function
  | [ ("=" | "<>" | "==" | "!=" | "compare") ] -> true
  | _ -> false

(* A [Sys.getenv_opt "MSP_..."] call is the sanctioned config-point
   shape: literal name, documented prefix.  Mark the head ident vetted
   so the per-ident fallback stays silent for exactly this call. *)
let vet_msp_getenv ctx (head : Parsetree.expression) path args =
  if env_reader (strip_stdlib path) then
    match args with
    | [ (Asttypes.Nolabel,
         { Parsetree.pexp_desc = Pexp_constant (Pconst_string (name, _, _));
           _ }) ]
      when String.length name >= 4 && String.sub name 0 4 = "MSP_" ->
      ctx.vetted <- head.pexp_loc :: ctx.vetted
    | _ -> ()

let check_apply ctx (e : Parsetree.expression) fn_path args =
  let path = strip_stdlib fn_path in
  if equality_like path
     && List.exists (fun (_, a) -> is_float_evidence a) args
  then
    add ctx e.pexp_loc "float-poly-eq"
      "polymorphic comparison on floats (nan-unsafe); use Float.equal / \
       Float.compare / Vec.equal";
  match (path, args) with
  | ( [ "/." ],
      [ _;
        (Asttypes.Nolabel,
         { Parsetree.pexp_desc = Pexp_constant (Pconst_float (lit, None)); _ })
      ] )
    when is_zero_float_literal lit ->
    add ctx e.pexp_loc "nan-source"
      "literal division by zero always yields inf/nan"
  | _ -> ()

let iterator ctx =
  let default = Ast_iterator.default_iterator in
  let expr iter (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } ->
      if not (List.memq e.pexp_loc ctx.vetted) then
        check_ident ctx e.pexp_loc (flatten txt)
    | Pexp_apply (({ pexp_desc = Pexp_ident { txt; _ }; _ } as head), args) ->
      vet_msp_getenv ctx head (flatten txt) args;
      check_apply ctx e (flatten txt) args
    | _ -> ());
    default.expr iter e
  in
  let module_expr iter (m : Parsetree.module_expr) =
    (match m.pmod_desc with
    | Pmod_ident { txt; _ } ->
      (match strip_stdlib (flatten txt) with
      | "Random" :: _ when ctx.kind <> Prng_library ->
        add ctx m.pmod_loc "determinism-random"
          "aliasing/opening Stdlib.Random breaks seeded replay; use \
           Prng.Stream"
      | _ -> ())
    | _ -> ());
    default.module_expr iter m
  in
  { default with expr; module_expr }

let run_checks ~kind ~file f =
  let ctx = { kind; file; acc = []; vetted = [] } in
  f (iterator ctx);
  List.rev ctx.acc

let check_structure ~kind ~file str =
  run_checks ~kind ~file (fun it -> it.Ast_iterator.structure it str)

let check_signature ~kind ~file sg =
  run_checks ~kind ~file (fun it -> it.Ast_iterator.signature it sg)
