(* Regenerates test/golden/fleet_flow_v1.txt, the bit-level capture of
   Multi.Fleet_flow.solve's cost and chain choice on the fixed cases of
   Experiments.Golden.  Regenerate it ONLY when the case list changes,
   never to make a failing comparison pass. *)

let () = print_string (Experiments.Golden.fleet_flow_string ())
