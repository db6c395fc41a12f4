(* The state is four 64-bit words in a 32-byte buffer, read and written
   with the unboxed 64-bit byte primitives, so a draw stores no boxed
   int64 (a mutable [int64] record field would store a fresh box on
   every update).  The state is never serialized, so native byte order
   is fine. *)
[@@@no_boxed_floats]

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] s0 g = get64 g 0
let[@inline] s1 g = get64 g 8
let[@inline] s2 g = get64 g 16
let[@inline] s3 g = get64 g 24
let[@inline] set_s0 g v = set64 g 0 v
let[@inline] set_s1 g v = set64 g 8 v
let[@inline] set_s2 g v = set64 g 16 v
let[@inline] set_s3 g v = set64 g 24 v

let make s0 s1 s2 s3 =
  let g = Bytes.create 32 in
  set_s0 g s0;
  set_s1 g s1;
  set_s2 g s2;
  set_s3 g s3;
  g

let of_state s0 s1 s2 s3 =
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then
    invalid_arg "Xoshiro.of_state: all-zero state";
  make s0 s1 s2 s3

let create seed =
  let sm = Splitmix.create seed in
  let s0 = Splitmix.next sm in
  let s1 = Splitmix.next sm in
  let s2 = Splitmix.next sm in
  let s3 = Splitmix.next sm in
  (* SplitMix64 output is never all-zero across four draws in practice,
     but guard anyway. *)
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then of_state 1L 0L 0L 0L
  else make s0 s1 s2 s3

let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.(logor (shift_left x k) (shift_right_logical x (64 - k)))

(* Inlined into [next_float] and [next_below], so their draws box no
   int64. *)
let[@inline] next g =
  let result = Int64.mul (rotl (Int64.mul (s1 g) 5L) 7) 9L in
  let t = Int64.shift_left (s1 g) 17 in
  set_s2 g (Int64.logxor (s2 g) (s0 g));
  set_s3 g (Int64.logxor (s3 g) (s1 g));
  set_s1 g (Int64.logxor (s1 g) (s2 g));
  set_s0 g (Int64.logxor (s0 g) (s3 g));
  set_s2 g (Int64.logxor (s2 g) t);
  set_s3 g (rotl (s3 g) 45);
  result

let two_pow_minus_53 = 1.110223024625156540e-16

let next_float g =
  let bits = Int64.shift_right_logical (next g) 11 in
  Int64.to_float bits *. two_pow_minus_53

let next_below g n =
  if n <= 0 then invalid_arg "Xoshiro.next_below: n must be positive";
  let n64 = Int64.of_int n in
  let rec draw () =
    let bits = Int64.shift_right_logical (next g) 1 in
    let value = Int64.rem bits n64 in
    if Int64.sub bits value > Int64.sub (Int64.add Int64.max_int 1L) n64
    then draw ()
    else Int64.to_int value
  in
  draw ()

let jump_table =
  [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL;
     0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

let jump g =
  let s0 = ref 0L and s1 = ref 0L and s2 = ref 0L and s3 = ref 0L in
  Array.iter
    (fun word ->
      for b = 0 to 63 do
        if Int64.(logand word (shift_left 1L b)) <> 0L then begin
          s0 := Int64.logxor !s0 (get64 g 0);
          s1 := Int64.logxor !s1 (get64 g 8);
          s2 := Int64.logxor !s2 (get64 g 16);
          s3 := Int64.logxor !s3 (get64 g 24)
        end;
        ignore (next g)
      done)
    jump_table;
  set_s0 g !s0;
  set_s1 g !s1;
  set_s2 g !s2;
  set_s3 g !s3
