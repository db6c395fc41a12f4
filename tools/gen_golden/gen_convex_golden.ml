(* Regenerates test/golden/convex_v1.txt, the bit-level capture of
   Offline.Convex_opt on the fixed cases of Experiments.Golden.
   The committed file was produced while the solver's descent phases
   still read the boxed instance; regenerate it ONLY when the case list
   changes, never to make a failing comparison pass. *)

let () = print_string (Experiments.Golden.convex_string ())
