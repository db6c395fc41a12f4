(* Regenerates test/golden/fleet_v1.txt, the bit-level capture of the
   fleet engine, every in-tree fleet algorithm and the fleet offline
   upper bound on the fixed cases of Experiments.Golden.  The committed
   file was produced while Fleet.step still ran on packed kernels;
   regenerate it ONLY when the case list changes, never to make a
   failing comparison pass. *)

let () = print_string (Experiments.Golden.fleet_string ())
