type align = Left | Right

type t = { header : string list; rows : string list list; aligns : align array }

let create ?aligns ~header rows =
  let width = List.length header in
  if width = 0 then invalid_arg "Tables.create: empty header";
  List.iteri
    (fun i row ->
      if List.length row <> width then
        invalid_arg
          (Printf.sprintf "Tables.create: row %d has %d cells, expected %d"
             i (List.length row) width))
    rows;
  let aligns =
    match aligns with
    | None -> Array.make width Right
    | Some l ->
      if List.length l <> width then
        invalid_arg "Tables.create: aligns length mismatch";
      Array.of_list l
  in
  { header; rows; aligns }

let cell x =
  if Float.is_nan x then "nan"
  else if Float.is_integer x && Float.abs x < 1e9 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.4g" x

let of_floats ~header rows = create ~header (List.map (List.map cell) rows)

let pad align width s =
  let gap = width - String.length s in
  if gap <= 0 then s
  else
    match align with
    | Left -> s ^ String.make gap ' '
    | Right -> String.make gap ' ' ^ s

let column_widths t =
  let widths = Array.of_list (List.map String.length t.header) in
  List.iter
    (List.iteri (fun i s ->
         if String.length s > widths.(i) then widths.(i) <- String.length s))
    t.rows;
  widths

let render_line widths aligns cells ~sep ~lborder ~rborder =
  let padded =
    List.mapi (fun i s -> pad aligns.(i) widths.(i) s) cells
  in
  lborder ^ String.concat sep padded ^ rborder

let render_ascii t =
  let widths = column_widths t in
  let line cells =
    render_line widths t.aligns cells ~sep:"  " ~lborder:"" ~rborder:""
  in
  let rule =
    String.concat "  "
      (Array.to_list (Array.map (fun w -> String.make w '-') widths))
  in
  String.concat "\n" (line t.header :: rule :: List.map line t.rows) ^ "\n"

let render_markdown t =
  let widths = column_widths t in
  let line cells =
    render_line widths t.aligns cells ~sep:" | " ~lborder:"| " ~rborder:" |"
  in
  let rule_cell i w =
    match t.aligns.(i) with
    | Left -> String.make (Stdlib.max 3 w) '-'
    | Right -> String.make (Stdlib.max 3 w - 1) '-' ^ ":"
  in
  let rule =
    "| "
    ^ String.concat " | " (Array.to_list (Array.mapi rule_cell widths))
    ^ " |"
  in
  String.concat "\n" (line t.header :: rule :: List.map line t.rows) ^ "\n"

(* Terminal rendering is this module's purpose; the io-stdout lint rule
   is suppressed for exactly these calls. *)
let print ?title t =
  (match title with
   | Some title ->
     print_endline title; (* msp-lint: allow io-stdout *)
     (* msp-lint: allow io-stdout *)
     print_endline (String.make (String.length title) '=')
   | None -> ());
  print_string (render_ascii t); (* msp-lint: allow io-stdout *)
  print_newline () (* msp-lint: allow io-stdout *)

module Ascii_plot = Ascii_plot
