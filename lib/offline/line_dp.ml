module Vec = Geometry.Vec
module Fbuf = Geometry.Fbuf
module Config = Mobile_server.Config
module Instance = Mobile_server.Instance
module Variant = Mobile_server.Variant

type solution = { cost : float; positions : Vec.t array; grid_pitch : float }

let log_src = Logs.Src.create "offline.line-dp" ~doc:"Exact 1-D optimum"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* In-place heapsort of [a.(0 .. n-1)] under [Float.compare].  The
   sorted prefix is exactly what [Array.sort Float.compare] would
   produce on an exact-length array (the sorted sequence of a float
   multiset is unique under a total order), so the solver can sort into
   a reusable scratch buffer longer than the round.  The buffer is an
   {!Fbuf.t}; same comparisons, same swaps, same permutation as the
   boxed version. *)
let sort_prefix (a : Fbuf.t) n =
  let sift root len =
    let j = ref root in
    let continue = ref true in
    while !continue do
      let l = (2 * !j) + 1 in
      if l >= len then continue := false
      else begin
        let big =
          if l + 1 < len && Float.compare (Fbuf.get a (l + 1)) (Fbuf.get a l) > 0
          then l + 1
          else l
        in
        if Float.compare (Fbuf.get a big) (Fbuf.get a !j) > 0 then begin
          let tmp = Fbuf.get a big in
          Fbuf.set a big (Fbuf.get a !j);
          Fbuf.set a !j tmp;
          j := big
        end
        else continue := false
      end
    done
  in
  for root = (n / 2) - 1 downto 0 do
    sift root n
  done;
  for last = n - 1 downto 1 do
    let tmp = Fbuf.get a last in
    Fbuf.set a last (Fbuf.get a 0);
    Fbuf.set a 0 tmp;
    sift 0 last
  done

(* Service cost Σ_i |x − v_i| at monotone query points, in
   O(r log r) preparation plus O(1) amortized per query, using sorted
   requests and prefix sums.  The request coordinates are
   [data.(lo .. hi-1)] of the flat packed buffer; [sorted] (>= r
   floats) and [prefix] (>= r+1 floats) are caller-owned scratch reused
   across rounds — this used to allocate both (and a full G-point
   service table) per round. *)
let prepare_requests (data : Fbuf.t) ~lo ~hi ~sorted ~prefix =
  let r = hi - lo in
  if r > 0 then begin
    Fbuf.blit data lo sorted 0 r;
    sort_prefix sorted r;
    Fbuf.set prefix 0 0.0;
    for i = 0 to r - 1 do
      Fbuf.set prefix (i + 1) (Fbuf.get prefix i +. Fbuf.get sorted i)
    done
  end;
  r

(* Service Σ_i |x − v_i| when [j] of the [r] requests are <= x — the
   per-point arithmetic of both the serve-first table and the
   move-first combine step of {!solve_packed}. *)
let service_formula (prefix : Fbuf.t) ~r j x =
  let below = float_of_int j and sum_below = Fbuf.unsafe_get prefix j in
  let above = float_of_int (r - j)
  and sum_above = Fbuf.unsafe_get prefix r -. sum_below in
  (below *. x) -. sum_below +. (sum_above -. (above *. x))
[@@inline]

(* Full service table over the grid, by an ascending two-pointer — only
   the serve-first variant needs it materialized (its transition keys
   read service at the pre-move position). *)
let service_into ~r ~(sorted : Fbuf.t) ~prefix (grid : float array) out =
  Array.fill out 0 (Array.length out) 0.0;
  if r > 0 then begin
    let j = ref 0 in
    for k = 0 to Array.length grid - 1 do
      let x = grid.(k) in
      while !j < r && Fbuf.get sorted !j <= x do incr j done;
      out.(k) <- service_formula prefix ~r !j x
    done
  end

(* Each round of {!solve_packed} is two scans of a monotone deque.  A
   transition key is computed once, when its index enters the deque, and
   cached in [deque_key] next to its slot; an equal key evicts the older
   index.  Pass 1 (left to right) stores the left-window minima and
   minimizers; pass 2 (right to left) runs the right window and combines
   each state as soon as its right minimum is the deque head.  Keys,
   comparisons and tie-breaks are exactly those of the textbook
   fill-then-scan formulation, so the whole DP table is bit-identical to
   it.  The grid-sized rows are [float array]s read without bounds
   checks: the GC never scans a float array, and unlike a Bigarray read
   an array read does not reload a data pointer on every access. *)

let solve_packed ?(grid_per_m = 64) (config : Config.t)
    (p : Instance.Packed.t) =
  if Instance.Packed.dim p <> 1 then
    invalid_arg "Line_dp.solve: instance is not 1-dimensional";
  let t_len = Instance.Packed.length p in
  if t_len = 0 then invalid_arg "Line_dp.solve: empty instance";
  if grid_per_m < 1 then invalid_arg "Line_dp.solve: grid_per_m < 1";
  let m = Config.offline_limit config in
  let d_factor = config.Config.d_factor in
  let start = (Instance.Packed.start p).(0) in
  if not (Float.is_finite start) then
    invalid_arg "Line_dp.solve: start position is not finite";
  (* In 1-D the flat buffer holds one coordinate per request, so the
     hull scan is a single pass over the packed data. *)
  let data = Geometry.Points.raw (Instance.Packed.points p) in
  let n_req = Instance.Packed.total_requests p in
  (* Hull of start and all requests; the optimum never leaves it.  A
     NaN coordinate would slip past the min/max (every comparison is
     false), so each coordinate is validated explicitly. *)
  let lo = ref start and hi = ref start in
  for i = 0 to n_req - 1 do
    let x = Fbuf.get data i in
    if not (Float.is_finite x) then
      invalid_arg
        "Line_dp.solve: request coordinate is not finite (NaN or infinite)";
    if x < !lo then lo := x;
    if x > !hi then hi := x
  done;
  let width = !hi -. !lo in
  (* Keep the parent table (one byte per state per round) within a fixed
     memory budget. *)
  let max_cells = 40_000_000 in
  let max_grid = Stdlib.max 64 (Stdlib.min 60_000 (max_cells / t_len)) in
  (* Pitch: fine enough for [grid_per_m] points per move budget, but
     never more than [max_grid] grid points overall.  The parent table
     stores window offsets in one byte, so the window half-width must
     stay below 127: widen the pitch if needed. *)
  let pitch =
    let by_m = m /. float_of_int (Stdlib.min grid_per_m 126) in
    let by_width = if width > 0.0 then width /. float_of_int max_grid else by_m in
    Float.max by_m by_width
  in
  (* Anchor the grid at the start position so it is represented exactly.
     Guard the float→int conversions: a non-finite or astronomically
     wide hull would otherwise silently wrap [int_of_float] (NaN → 0,
     huge → min_int) and corrupt the grid. *)
  let cells_lo = Float.ceil ((start -. !lo) /. pitch) in
  let cells_hi = Float.ceil ((!hi -. start) /. pitch) in
  let max_cells_f = 1e9 in
  if
    not (Float.is_finite cells_lo && Float.is_finite cells_hi)
    || cells_lo > max_cells_f || cells_hi > max_cells_f
  then
    invalid_arg
      (Printf.sprintf
         "Line_dp.solve: hull [%g, %g] is too wide for grid construction \
          (pitch %g yields a non-representable grid index); refusing to \
          wrap int_of_float"
         !lo !hi pitch);
  let k_lo = -(int_of_float cells_lo) in
  let k_hi = int_of_float cells_hi in
  let g = k_hi - k_lo + 1 in
  let grid = Array.make g 0.0 in
  for i = 0 to g - 1 do
    grid.(i) <- start +. (float_of_int (k_lo + i) *. pitch)
  done;
  let start_idx = -k_lo in
  let w = int_of_float (Float.floor ((m /. pitch) +. 1e-9)) in
  (* Coarse-pitch regime: the arena is so wide relative to the grid
     budget that one grid step already exceeds the movement limit.
     Clamping the window to 1 here would let the DP hop [pitch > m] per
     round and return an infeasible trajectory, so fail loudly instead. *)
  if w < 1 then
    invalid_arg
      (Printf.sprintf
         "Line_dp.solve: grid pitch %g exceeds movement limit m = %g \
          (arena width %g over a %d-point grid budget at T = %d); the \
          instance is too wide for an exact solve at this resolution"
         pitch m width max_grid t_len);
  Log.debug (fun msg ->
      msg "T=%d: grid of %d points (pitch %.3g, window %d)" t_len g pitch w);
  let inf = infinity in
  (* Parent offsets, one byte per state per round: offset + 128. *)
  let parents = Bytes.make (t_len * g) '\000' in
  (* Rows reused across all T rounds — the DP loop allocates nothing. *)
  let value = Array.make g inf in
  value.(start_idx) <- 0.0;
  let d_grid = Array.make g 0.0 in
  for i = 0 to g - 1 do
    d_grid.(i) <- d_factor *. grid.(i)
  done;
  let left_val = Array.make g 0.0 and left_idx = Array.make g 0 in
  let deque = Array.make g 0 and deque_key = Array.make g 0.0 in
  let max_r = ref 0 in
  for t = 0 to t_len - 1 do
    max_r := Stdlib.max !max_r (Instance.Packed.round_length p t)
  done;
  let sorted = Fbuf.create (Stdlib.max 1 !max_r) in
  let prefix = Fbuf.create (!max_r + 1) in
  let serve_first = Variant.equal config.Config.variant Variant.Serve_first in
  (* Base value of staying at y before moving: V(y) (+ service(y) when
     the variant charges requests at the pre-move position).  Move-first
     reads [value] directly; serve-first materializes V + service into
     its own row once per round. *)
  let service = if serve_first then Array.make g 0.0 else [||] in
  let base = if serve_first then Array.make g 0.0 else value in
  for t = 0 to t_len - 1 do
    let r =
      prepare_requests data ~lo:(Instance.Packed.round_start p t)
        ~hi:(Instance.Packed.round_start p (t + 1))
        ~sorted ~prefix
    in
    if serve_first then begin
      service_into ~r ~sorted ~prefix grid service;
      for j = 0 to g - 1 do
        base.(j) <- value.(j) +. service.(j)
      done
    end;
    (* Pass 1, left window j in [k-w, k]: minimize base(j) − D·x_j (the
       D·x_k term is added in pass 2). *)
    let head = ref 0 and tail = ref 0 in
    for k = 0 to g - 1 do
      let key = Array.unsafe_get base k -. Array.unsafe_get d_grid k in
      while !head < !tail && Array.unsafe_get deque !head < k - w do
        incr head
      done;
      while !head < !tail && Array.unsafe_get deque_key (!tail - 1) >= key do
        decr tail
      done;
      Array.unsafe_set deque !tail k;
      Array.unsafe_set deque_key !tail key;
      incr tail;
      Array.unsafe_set left_val k (Array.unsafe_get deque_key !head);
      Array.unsafe_set left_idx k (Array.unsafe_get deque !head)
    done;
    (* Pass 2, right window j in [k, k+w]: minimize base(j) + D·x_j, then
       combine.  State k's key is in the deque before [value.(k)] is
       overwritten, so the new value goes in place even when [base] is
       [value].  [js] counts the requests <= x_k, descending with k. *)
    let head = ref 0 and tail = ref 0 and js = ref r in
    for k = g - 1 downto 0 do
      let dx = Array.unsafe_get d_grid k in
      let key = Array.unsafe_get base k +. dx in
      while !head < !tail && Array.unsafe_get deque !head > k + w do
        incr head
      done;
      while !head < !tail && Array.unsafe_get deque_key (!tail - 1) >= key do
        decr tail
      done;
      Array.unsafe_set deque !tail k;
      Array.unsafe_set deque_key !tail key;
      incr tail;
      let from_left = Array.unsafe_get left_val k +. dx in
      let from_right = Array.unsafe_get deque_key !head -. dx in
      let take_left = from_left <= from_right in
      let best_val = if take_left then from_left else from_right in
      let best_j =
        if take_left then Array.unsafe_get left_idx k
        else Array.unsafe_get deque !head
      in
      Array.unsafe_set value k
        (if not (Float.is_finite best_val) then inf
         else if serve_first then best_val
         else if r = 0 then best_val +. 0.0
         else begin
           let x = Array.unsafe_get grid k in
           while !js > 0 && Fbuf.unsafe_get sorted (!js - 1) > x do
             decr js
           done;
           best_val +. service_formula prefix ~r !js x
         end);
      (* |best_j − k| <= w <= 126, so the offset fits one byte. *)
      Bytes.unsafe_set parents ((t * g) + k)
        (Char.unsafe_chr (best_j - k + 128))
    done
  done;
  (* Best terminal state, then walk parents back. *)
  let best_k = ref 0 in
  for k = 1 to g - 1 do
    if value.(k) < value.(!best_k) then best_k := k
  done;
  let positions = Array.make t_len [| 0.0 |] in
  let k = ref !best_k in
  for t = t_len - 1 downto 0 do
    positions.(t) <- [| grid.(!k) |];
    let offset = Char.code (Bytes.get parents ((t * g) + !k)) - 128 in
    k := !k + offset
  done;
  { cost = value.(!best_k); positions; grid_pitch = pitch }

let solve ?grid_per_m config inst =
  solve_packed ?grid_per_m config (Instance.pack inst)

let optimum ?grid_per_m config inst = (solve ?grid_per_m config inst).cost

let optimum_packed ?grid_per_m config p =
  (solve_packed ?grid_per_m config p).cost
