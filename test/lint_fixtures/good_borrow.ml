(* Annotated-correct counterpart of the borrow fixtures: reading a
   borrow is free, and copying first makes the result owned — writes
   and stores of the copy are fine.  The borrow-escape pass must stay
   silent. *)

type t = { data : float array }

let view t = t.data [@@borrow]

type holder = { mutable stash : float array }

let snapshot t = Array.copy (view t)

let stash h t = h.stash <- snapshot t

let scale t =
  let v = view t in
  let out = Array.copy v in
  Array.set out 0 (Array.get v 0 *. 2.0);
  out

let total t =
  let v = view t in
  Array.fold_left ( +. ) 0.0 v

(* Bigarray substrate: reading a borrowed Fbuf is free, and writes to
   an owned copy are fine. *)

let raw t = t.data [@@borrow]

let flat_head t = Fbuf.get (raw t) 0

let flat_scaled t =
  let v = raw t in
  let out = Fbuf.create (Fbuf.length v) in
  Fbuf.blit v 0 out 0 (Fbuf.length v);
  Fbuf.set out 0 (Fbuf.get v 0 *. 2.0);
  Fbuf.fill out 0.0;
  out
