(* Tests for table rendering. *)

let simple () =
  Tables.create ~header:[ "name"; "value" ]
    [ [ "alpha"; "1" ]; [ "beta"; "22" ] ]

let create_validates () =
  Alcotest.check_raises "ragged row"
    (Invalid_argument "Tables.create: row 0 has 1 cells, expected 2")
    (fun () -> ignore (Tables.create ~header:[ "a"; "b" ] [ [ "x" ] ]));
  Alcotest.check_raises "empty header"
    (Invalid_argument "Tables.create: empty header") (fun () ->
      ignore (Tables.create ~header:[] []));
  Alcotest.check_raises "aligns mismatch"
    (Invalid_argument "Tables.create: aligns length mismatch") (fun () ->
      ignore (Tables.create ~aligns:[ Tables.Left ] ~header:[ "a"; "b" ] []))

let ascii_rendering () =
  let out = Tables.render_ascii (simple ()) in
  Alcotest.(check string) "ascii"
    " name  value\n-----  -----\nalpha      1\n beta     22\n" out

let ascii_left_align () =
  let t =
    Tables.create ~aligns:[ Tables.Left; Tables.Right ]
      ~header:[ "name"; "v" ]
      [ [ "a"; "1" ] ]
  in
  let out = Tables.render_ascii t in
  Alcotest.(check string) "left aligned" "name  v\n----  -\na     1\n" out

let markdown_rendering () =
  let out = Tables.render_markdown (simple ()) in
  Alcotest.(check bool) "has pipes" true
    (String.length out > 0 && out.[0] = '|');
  (* Header, rule, two rows. *)
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check int) "line count" 4 (List.length lines)

let of_floats_formatting () =
  let t = Tables.of_floats ~header:[ "x"; "y" ] [ [ 1.0; 0.333333333 ] ] in
  let out = Tables.render_ascii t in
  Alcotest.(check string) "floats" "x       y\n-  ------\n1  0.3333\n" out

let cell_formats () =
  Alcotest.(check string) "integer-valued" "3" (Tables.cell 3.0);
  Alcotest.(check string) "nan" "nan" (Tables.cell Float.nan);
  Alcotest.(check string) "fraction" "0.125" (Tables.cell 0.125);
  Alcotest.(check string) "precision" "3.142" (Tables.cell 3.14159265)

(* --- Ascii plots ---------------------------------------------------- *)

let sparkline_shape () =
  let s = Tables.Ascii_plot.sparkline [| 0.0; 1.0 |] in
  (* Two UTF-8 block characters of three bytes each. *)
  Alcotest.(check int) "byte length" 6 (String.length s);
  Alcotest.check_raises "empty"
    (Invalid_argument "Ascii_plot.sparkline: empty series") (fun () ->
      ignore (Tables.Ascii_plot.sparkline [||]))

let sparkline_monotone () =
  let s = Tables.Ascii_plot.sparkline [| 0.0; 0.5; 1.0 |] in
  (* First block must be the lowest, last the highest. *)
  Alcotest.(check string) "low first" "\xe2\x96\x81" (String.sub s 0 3);
  Alcotest.(check string) "high last" "\xe2\x96\x88" (String.sub s 6 3)

let sparkline_constant () =
  let s = Tables.Ascii_plot.sparkline [| 2.0; 2.0; 2.0 |] in
  Alcotest.(check string) "flat middle"
    "\xe2\x96\x84\xe2\x96\x84\xe2\x96\x84" s

let chart_shape () =
  let out =
    Tables.Ascii_plot.chart ~width:20 ~height:5 [ ('*', [| 0.0; 1.0; 0.5 |]) ]
  in
  let lines = String.split_on_char '\n' (String.trim out) in
  (* max label + 5 rows + min label/footer. *)
  Alcotest.(check int) "line count" 7 (List.length lines);
  Alcotest.(check bool) "contains glyph" true
    (String.exists (fun c -> c = '*') out)

let chart_validates () =
  Alcotest.check_raises "no series"
    (Invalid_argument "Ascii_plot.chart: no series") (fun () ->
      ignore (Tables.Ascii_plot.chart []));
  Alcotest.check_raises "empty series"
    (Invalid_argument "Ascii_plot.chart: empty series") (fun () ->
      ignore (Tables.Ascii_plot.chart [ ('*', [||]) ]))

let histogram_bars_scale () =
  let out =
    Tables.Ascii_plot.histogram_bars ~width:10 [ ("a", 10.0); ("b", 5.0) ]
  in
  let lines = String.split_on_char '\n' (String.trim out) in
  (match lines with
   | [ a; b ] ->
     let count_hash s =
       String.fold_left (fun acc c -> if c = '#' then acc + 1 else acc) 0 s
     in
     Alcotest.(check int) "full bar" 10 (count_hash a);
     Alcotest.(check int) "half bar" 5 (count_hash b)
   | _ -> Alcotest.fail "expected two lines");
  Alcotest.check_raises "negative"
    (Invalid_argument "Ascii_plot.histogram_bars: negative value") (fun () ->
      ignore (Tables.Ascii_plot.histogram_bars [ ("x", -1.0) ]))

let () =
  Alcotest.run "tables"
    [
      ( "ascii-plot",
        [
          Alcotest.test_case "sparkline shape" `Quick sparkline_shape;
          Alcotest.test_case "sparkline monotone" `Quick sparkline_monotone;
          Alcotest.test_case "sparkline constant" `Quick sparkline_constant;
          Alcotest.test_case "chart shape" `Quick chart_shape;
          Alcotest.test_case "chart validates" `Quick chart_validates;
          Alcotest.test_case "histogram bars" `Quick histogram_bars_scale;
        ] );
      ( "tables",
        [
          Alcotest.test_case "create validates" `Quick create_validates;
          Alcotest.test_case "ascii" `Quick ascii_rendering;
          Alcotest.test_case "ascii left align" `Quick ascii_left_align;
          Alcotest.test_case "markdown" `Quick markdown_rendering;
          Alcotest.test_case "of_floats" `Quick of_floats_formatting;
          Alcotest.test_case "cell formats" `Quick cell_formats;
        ] );
    ]
