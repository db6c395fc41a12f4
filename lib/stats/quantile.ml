(* Non-finite observations are rejected loudly, matching [Running.add]:
   Float.compare sorts NaNs to one end (silently shifting every
   quantile), and a NaN run through the histogram's bin arithmetic
   lands in bin 0 via [int_of_float nan = 0]. *)
let ensure_finite fname xs =
  Array.iter
    (fun x ->
      if not (Float.is_finite x) then
        invalid_arg (fname ^ ": non-finite observation"))
    xs

let quantile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Quantile.quantile: empty sample";
  if q < 0.0 || q > 1.0 then invalid_arg "Quantile.quantile: q outside [0,1]";
  ensure_finite "Quantile.quantile" xs;
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  if n = 1 then sorted.(0)
  else begin
    let h = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor h) in
    let i = if i >= n - 1 then n - 2 else i in
    let frac = h -. float_of_int i in
    sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))
  end

let median xs = quantile xs 0.5

let histogram ~bins xs =
  if bins < 1 then invalid_arg "Quantile.histogram: bins < 1";
  let n = Array.length xs in
  if n = 0 then invalid_arg "Quantile.histogram: empty sample";
  ensure_finite "Quantile.histogram" xs;
  let lo = Array.fold_left Float.min xs.(0) xs in
  let hi = Array.fold_left Float.max xs.(0) xs in
  let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1.0 in
  let counts = Array.make bins 0 in
  Array.iter
    (fun x ->
      let idx = int_of_float ((x -. lo) /. width) in
      let idx = if idx >= bins then bins - 1 else if idx < 0 then 0 else idx in
      counts.(idx) <- counts.(idx) + 1)
    xs;
  Array.mapi
    (fun i c ->
      let lower = lo +. (float_of_int i *. width) in
      (lower, lower +. width, c))
    counts
