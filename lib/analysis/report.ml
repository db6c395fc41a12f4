type kind =
  | Clamped_proposal of { distance : float; limit : float }
  | Non_finite_proposal
  | Non_finite_position
  | Non_finite_cost
  | Negative_cost
  | Nondeterministic of { coord : int }

type violation = { round : int; kind : kind }

type t = {
  algorithm : string;
  rounds : int;
  clamped : int;
  determinism_checked : bool;
  violations : violation list;
}

let ok t = match t.violations with [] -> true | _ :: _ -> false

let count t ~kind =
  List.fold_left (fun n v -> if kind v.kind then n + 1 else n) 0 t.violations

let is_clamped = function Clamped_proposal _ -> true | _ -> false

let is_nondeterministic = function Nondeterministic _ -> true | _ -> false

let pp_kind ppf = function
  | Clamped_proposal { distance; limit } ->
    Format.fprintf ppf "proposal clamped (moved %.6g > budget %.6g)" distance
      limit
  | Non_finite_proposal -> Format.pp_print_string ppf "non-finite proposal"
  | Non_finite_position ->
    Format.pp_print_string ppf "non-finite server position"
  | Non_finite_cost -> Format.pp_print_string ppf "non-finite cost"
  | Negative_cost -> Format.pp_print_string ppf "negative cost"
  | Nondeterministic { coord } ->
    Format.fprintf ppf
      "seed replay diverged (coordinate %d differs)" coord

let pp_violation ppf v =
  Format.fprintf ppf "round %d: %a" v.round pp_kind v.kind

let shown_violations = 20

let pp ppf t =
  Format.fprintf ppf "@[<v>audit of %s over %d rounds:@," t.algorithm t.rounds;
  Format.fprintf ppf "  clamped proposals : %d@," t.clamped;
  Format.fprintf ppf "  determinism check : %s@,"
    (if t.determinism_checked then "ran" else "skipped");
  (match t.violations with
  | [] -> Format.fprintf ppf "  violations        : none@,"
  | vs ->
    Format.fprintf ppf "  violations        : %d@," (List.length vs);
    List.iteri
      (fun i v ->
        if i < shown_violations then
          Format.fprintf ppf "    %a@," pp_violation v)
      vs;
    let extra = List.length vs - shown_violations in
    if extra > 0 then Format.fprintf ppf "    ... and %d more@," extra);
  Format.fprintf ppf "  verdict           : %s@]"
    (if ok t then "OK" else "VIOLATIONS FOUND")

let summary t =
  Format.asprintf "%s: %d rounds, %d violation%s (audit %s)" t.algorithm
    t.rounds
    (List.length t.violations)
    (match t.violations with [ _ ] -> "" | _ -> "s")
    (if ok t then "ok" else "FAILED")
