(* Fixture: a module that opts into the boxed-float-closure check and
   updates captured float refs — the shape of the Weiszfeld inner loop
   before its rewrite, and a module-level accumulator.  Two findings. *)

[@@@no_boxed_floats]

let dist u v =
  let acc = ref 0.0 in
  for i = 0 to Array.length u - 1 do
    let c = u.(i) -. v.(i) in
    acc := !acc +. (c *. c)
  done;
  sqrt !acc

let step points y weighted =
  let inv_sum = ref 0.0 in
  Array.iter
    (fun p ->
      let w = 1.0 /. dist y p in
      inv_sum := !inv_sum +. w;
      for i = 0 to Array.length y - 1 do
        weighted.(i) <- weighted.(i) +. (w *. p.(i))
      done)
    points;
  !inv_sum

let total = ref 0.0

let record x = total := Float.max !total x
