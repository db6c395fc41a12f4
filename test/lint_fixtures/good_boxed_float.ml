(* Fixture: a [@@@no_boxed_floats] module whose float refs are all
   bound in the function that updates them — the for-loop form of the
   Weiszfeld inner loop, and a ref bound inside the closure itself.
   Module initialisation code and non-float updates are not flagged. *)

[@@@no_boxed_floats]

let step points y weighted =
  let inv_sum = ref 0.0 in
  for j = 0 to Array.length points - 1 do
    let p = points.(j) in
    let acc = ref 0.0 in
    for i = 0 to Array.length y - 1 do
      let c = y.(i) -. p.(i) in
      acc := !acc +. (c *. c)
    done;
    let w = 1.0 /. sqrt !acc in
    inv_sum := !inv_sum +. w;
    for i = 0 to Array.length y - 1 do
      weighted.(i) <- weighted.(i) +. (w *. p.(i))
    done
  done;
  !inv_sum

let norms points =
  Array.map
    (fun p ->
      let acc = ref 0.0 in
      Array.iter (fun c -> ignore (Sys.opaque_identity c)) p;
      for i = 0 to Array.length p - 1 do
        acc := !acc +. (p.(i) *. p.(i))
      done;
      sqrt !acc)
    points

let scale = ref 1.0

let () = scale := !scale *. 2.0

let count = ref 0

let bump () = count := !count + 1
