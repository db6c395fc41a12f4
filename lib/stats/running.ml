type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable lo : float;
  mutable hi : float;
  mutable total : float;
}

let create () =
  { n = 0; mean = 0.0; m2 = 0.0; lo = nan; hi = nan; total = 0.0 }

let add acc x =
  if not (Float.is_finite x) then
    invalid_arg "Running.add: non-finite observation";
  acc.n <- acc.n + 1;
  let delta = x -. acc.mean in
  acc.mean <- acc.mean +. (delta /. float_of_int acc.n);
  acc.m2 <- acc.m2 +. (delta *. (x -. acc.mean));
  acc.total <- acc.total +. x;
  if acc.n = 1 then begin
    acc.lo <- x;
    acc.hi <- x
  end else begin
    if x < acc.lo then acc.lo <- x;
    if x > acc.hi then acc.hi <- x
  end

let count acc = acc.n

let mean acc = if acc.n = 0 then nan else acc.mean

let variance acc =
  if acc.n < 2 then 0.0 else acc.m2 /. float_of_int (acc.n - 1)

let stddev acc = sqrt (variance acc)

let std_error acc =
  if acc.n = 0 then nan else stddev acc /. sqrt (float_of_int acc.n)

let min acc = acc.lo

let max acc = acc.hi

let sum acc = acc.total

let of_array xs =
  let acc = create () in
  Array.iter (add acc) xs;
  acc
