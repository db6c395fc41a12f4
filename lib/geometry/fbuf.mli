(** Flat float64 buffers outside the OCaml heap.

    An [Fbuf.t] is a [Bigarray.Array1] of IEEE doubles in C layout.
    The multi-MB hot state (packed instances, dense metric tables, DP
    value arrays) lives here so the GC neither scans nor moves it; the
    type is a {e public alias} so access sites compile to unboxed
    float64 loads and stores.

    {b Bit-identity.}  Elements are the same IEEE doubles a
    [float array] holds; a kernel migrated onto [Fbuf.t] that performs
    the same operations in the same order produces bit-identical
    results.  The differential suites (test_packed, test_stream) pin
    this.

    {b Ownership.}  An [Fbuf.t] handed out by a [@@borrow] accessor
    aliases its owner's storage, exactly like a borrowed [float array]:
    read freely, never write ([Fbuf.set]/[fill]/[blit] through a borrow
    are flagged by msp_lint's borrow-escape pass). *)

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
(** [create n] allocates [n] doubles, zero-filled (Bigarray storage is
    uninitialized by default; this module never hands it out raw).
    Raises [Invalid_argument] if [n < 0]. *)

external length : t -> int = "%caml_ba_dim_1"

(* The accessors are [external] re-exports of the compiler primitives,
   declared as such {e in this interface}: a plain [val] would hide the
   primitive behind a cross-module call (this toolchain has no flambda
   to undo that), boxing every float read.  As externals, every
   [Fbuf.get] call site compiles to the same unboxed load/store an
   inline [Bigarray.Array1.get] would. *)

external get : t -> int -> float = "%caml_ba_ref_1"
(** Bounds-checked read. *)

external set : t -> int -> float -> unit = "%caml_ba_set_1"
(** Bounds-checked write. *)

external unsafe_get : t -> int -> float = "%caml_ba_unsafe_ref_1"
external unsafe_set : t -> int -> float -> unit = "%caml_ba_unsafe_set_1"

val fill : t -> float -> unit

val blit : t -> int -> t -> int -> int -> unit
(** [blit src spos dst dpos len] copies [len] doubles; ranges must be
    in bounds (checked by the underlying [Array1.sub]). *)

val blit_from_array : float array -> int -> t -> int -> int -> unit
(** [blit_from_array src spos dst dpos len] copies from a boxed
    array. *)

val blit_to_array : t -> int -> float array -> int -> int -> unit
(** [blit_to_array src spos dst dpos len] copies into a boxed array. *)
