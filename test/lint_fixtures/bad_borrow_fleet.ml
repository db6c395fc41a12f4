(* Seeded-bad fixture for the borrow-escape pass, packed-fleet buffers:
   writes through a [positions] borrow of a flat fleet buffer.  Five
   findings (Fbuf.set, Fbuf.fill, Fbuf.blit into a borrow,
   Fbuf.blit_from_array into a borrow, Bigarray.Array1.set). *)

type t = { data : float array }

let positions t = t.data [@@borrow]

let corrupt fleet scratch =
  let buf = positions fleet in
  Fbuf.set buf 0 42.0;
  Geometry.Fbuf.fill buf 0.0;
  Fbuf.blit scratch 0 buf 0 8;
  Fbuf.blit_from_array scratch 0 buf 0 8;
  Bigarray.Array1.set buf 1 7.0

let ok fleet =
  (* Reads through the borrow are fine. *)
  Fbuf.get (positions fleet) 0
