(* Regenerates test/golden/line_dp_v1.txt, the bit-level capture of
   Offline.Line_dp on the fixed cases of Experiments.Golden.
   The committed file was produced by the three-pass kernel before the
   two-pass rewrite; regenerate it ONLY when the case list changes,
   never to make a failing comparison pass. *)

let () = print_string (Experiments.Golden.line_dp_string ())
