type t = Xoshiro.t

let fnv1a name =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    name;
  !h

let named ~name ~seed =
  Xoshiro.create (Int64.logxor (fnv1a name) (Int64.of_int seed))

let replicate base i =
  (* Mix the replicate index through splitmix seeded by a snapshot of the
     base stream's next output; the snapshot comes from a copy so [base]
     itself is not advanced. *)
  let snapshot = Xoshiro.next (Xoshiro.copy base) in
  let sm = Splitmix.create (Int64.add snapshot (Int64.of_int (0x9E37 * (i + 1)))) in
  Xoshiro.create (Splitmix.next sm)
