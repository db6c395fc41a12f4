(* Prints one golden capture of Experiments.Golden on stdout, e.g.

     dune exec tools/gen_golden/gen_golden.exe -- line_dp \
       > test/golden/line_dp_v1.txt

   The committed captures were produced by earlier code (golden.mli
   says which); regenerate one ONLY when its case list, or the golden
   run's definition, changes, never to make a failing comparison pass:
   a mismatch is the signal the suites exist to catch. *)

let captures =
  Experiments.Golden.
    [
      ("trajectory", trajectory_string);
      ("line_dp", line_dp_string);
      ("fleet", fleet_string);
      ("fleet_flow", fleet_flow_string);
      ("convex", convex_string);
      ("network", network_string);
      ("frames", frames_string);
    ]

let () =
  match Sys.argv with
  | [| _; name |] when List.mem_assoc name captures ->
    print_string (List.assoc name captures ())
  | _ ->
    prerr_endline
      ("usage: gen_golden.exe NAME, NAME one of "
      ^ String.concat ", " (List.map fst captures));
    exit 2
