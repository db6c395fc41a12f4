(* Fixture: the bad_boxed_float.ml shape in a module that does not opt
   in with [@@@no_boxed_floats] — the rule stays silent. *)

let step points y =
  let inv_sum = ref 0.0 in
  Array.iter
    (fun p ->
      let c = y -. p in
      inv_sum := !inv_sum +. (1.0 /. Float.abs c))
    points;
  !inv_sum
