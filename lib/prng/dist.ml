let uniform g ~lo ~hi =
  if lo > hi then invalid_arg "Dist.uniform: lo > hi";
  lo +. ((hi -. lo) *. Xoshiro.next_float g)

let gaussian g ~mu ~sigma =
  if sigma < 0. then invalid_arg "Dist.gaussian: sigma < 0";
  (* Box–Muller; u1 is bounded away from 0 so log is finite. *)
  let u1 = 1.0 -. Xoshiro.next_float g in
  let u2 = Xoshiro.next_float g in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let exponential g ~rate =
  if rate <= 0. then invalid_arg "Dist.exponential: rate <= 0";
  -.log (1.0 -. Xoshiro.next_float g) /. rate

let bernoulli g ~p = Xoshiro.next_float g < p

let fair_coin g = Int64.logand (Xoshiro.next g) 1L = 1L

(* Knuth's loop needs exp (-lambda) to be a normal float; past
   lambda ≈ 708 it underflows and the draws saturate near 745.  A sum
   of independent Poisson counts is Poisson with the summed mean, so a
   larger mean is drawn as two halves. *)
let rec poisson g ~lambda =
  if not (Float.is_finite lambda) || lambda < 0. then
    invalid_arg "Dist.poisson: lambda is negative or not finite";
  if lambda > 700. then begin
    let half = lambda /. 2. in
    let first = poisson g ~lambda:half in
    first + poisson g ~lambda:(lambda -. half)
  end
  else begin
    let limit = exp (-.lambda) in
    let rec loop k prod =
      let prod = prod *. Xoshiro.next_float g in
      if prod <= limit then k else loop (k + 1) prod
    in
    loop 0 1.0
  end

let zipf g ~n ~s =
  if n <= 0 then invalid_arg "Dist.zipf: n <= 0";
  (* Direct inversion over the (small) support. *)
  let weights = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let u = Xoshiro.next_float g *. total in
  let rec find i acc =
    if i >= n - 1 then n
    else
      let acc = acc +. weights.(i) in
      if u < acc then i + 1 else find (i + 1) acc
  in
  find 0 0.0

let direction g ~dim =
  if dim <= 0 then invalid_arg "Dist.direction: dim <= 0";
  let rec draw () =
    let v = Array.init dim (fun _ -> gaussian g ~mu:0.0 ~sigma:1.0) in
    let norm = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 v) in
    if norm < 1e-12 then draw ()
    else Array.map (fun x -> x /. norm) v
  in
  draw ()

let in_ball g ~center ~radius =
  if radius < 0. then invalid_arg "Dist.in_ball: radius < 0";
  let dim = Array.length center in
  let dir = direction g ~dim in
  (* Radius ~ r * U^{1/dim} for uniformity in the ball volume. *)
  let r = radius *. Float.pow (Xoshiro.next_float g) (1.0 /. float_of_int dim) in
  Array.mapi (fun i c -> c +. (r *. dir.(i))) center

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = Xoshiro.next_below g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
