open Bigarray

type samples = {
  buf : (float, float64_elt, c_layout) Array1.t;
  mutable n : int;
}

(* A Bigarray is malloc'd outside the OCaml heap and never scanned, so
   a large capacity costs address space only: pages become resident as
   samples are written, and recording a sample allocates nothing. *)
let create capacity =
  if capacity < 1 then invalid_arg "Pct.create: capacity < 1";
  { buf = Array1.create float64 c_layout capacity; n = 0 }

let count s = s.n
let full s = s.n >= Array1.dim s.buf

let add s x =
  if s.n < Array1.dim s.buf then begin
    Array1.unsafe_set s.buf s.n x;
    s.n <- s.n + 1
  end

let sorted s =
  let a = Array.init s.n (fun i -> Array1.get s.buf i) in
  Array.sort Float.compare a;
  a

(* Percentiles are integers in parts per 100_000, so ranks are exact
   integer arithmetic rather than float products that can land a hair
   above an integer and shift the rank by one. *)
let ladder =
  [ (50_000, "p50"); (75_000, "p75"); (90_000, "p90"); (99_000, "p99");
    (99_900, "p99.9"); (99_990, "p99.99"); (99_999, "p99.999") ]

(* Nearest-rank: the 0-based index of the smallest sample with at least
   a [ppm / 100_000] share of the samples at or below it. *)
let rank ~ppm n = Stdlib.max 0 (((ppm * n) + 99_999) / 100_000 - 1)

let beyond ~ppm n = n - 1 - rank ~ppm n

let tail ~n =
  List.fold_left
    (fun best ((ppm, _) as p) -> if beyond ~ppm n >= 10 then p else best)
    (List.hd ladder) ladder

let at sorted ~ppm =
  let n = Array.length sorted in
  if n = 0 then nan else sorted.(Stdlib.min (n - 1) (rank ~ppm n))
