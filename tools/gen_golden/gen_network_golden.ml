(* Regenerates test/golden/network_v1.txt, the bit-level capture of
   Network.Dijkstra.all_pairs and Network.Pm_offline.solve on the fixed
   cases of Experiments.Golden.  The committed file was produced while
   bench network still checked the CSR code against its pre-CSR
   replica; regenerate it ONLY when the case list changes, never to make
   a failing comparison pass. *)

let () = print_string (Experiments.Golden.network_string ())
