(* Flat float64 buffer on Bigarray.Array1 (c_layout).  The type is a
   public alias so every access site compiles to an unboxed float64
   load/store — no per-call boxing, and the buffer's storage lives
   outside the OCaml heap (malloc'd), so the GC never scans or moves
   multi-MB hot state.  Values are IEEE doubles either way: moving a
   kernel from [float array] to [Fbuf.t] cannot perturb a single
   rounding step as long as the operation order is preserved. *)

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let create n =
  if n < 0 then invalid_arg "Fbuf.create: negative length";
  let b = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  Bigarray.Array1.fill b 0.0;
  b

(* [external] (here and in the .mli) so call sites keep the compiler
   primitive — a [val]-typed wrapper would be a cross-module call that
   boxes every float on this non-flambda toolchain. *)
external length : t -> int = "%caml_ba_dim_1"
external get : t -> int -> float = "%caml_ba_ref_1"
external set : t -> int -> float -> unit = "%caml_ba_set_1"
external unsafe_get : t -> int -> float = "%caml_ba_unsafe_ref_1"
external unsafe_set : t -> int -> float -> unit = "%caml_ba_unsafe_set_1"

let fill (t : t) v = Bigarray.Array1.fill t v

let blit src spos dst dpos len =
  Bigarray.Array1.blit
    (Bigarray.Array1.sub src spos len)
    (Bigarray.Array1.sub dst dpos len)

let blit_from_array (src : float array) spos (dst : t) dpos len =
  if len < 0 || spos < 0 || dpos < 0
     || spos + len > Array.length src
     || dpos + len > length dst
  then invalid_arg "Fbuf.blit_from_array: range out of bounds";
  for i = 0 to len - 1 do
    unsafe_set dst (dpos + i) (Array.unsafe_get src (spos + i))
  done

let blit_to_array (src : t) spos (dst : float array) dpos len =
  if len < 0 || spos < 0 || dpos < 0
     || spos + len > length src
     || dpos + len > Array.length dst
  then invalid_arg "Fbuf.blit_to_array: range out of bounds";
  for i = 0 to len - 1 do
    Array.unsafe_set dst (dpos + i) (unsafe_get src (spos + i))
  done
