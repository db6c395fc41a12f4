[@@@no_boxed_floats]

module Vec = Geometry.Vec
module Points = Geometry.Points
module Fbuf = Geometry.Fbuf
module Config = Mobile_server.Config
module Instance = Mobile_server.Instance
module Cost = Mobile_server.Cost
module Variant = Mobile_server.Variant

type solution = {
  cost : float;
  positions : Vec.t array;
  subgradient_iterations : int;
  descent_sweeps : int;
}

let log_src = Logs.Src.create "offline.convex" ~doc:"Convex trajectory solver"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* No iteration of a phase allocates, apart from what pricing through
   [Cost.trajectory] boxes.  Each phase copies the incumbent once, and
   the warm start and the final feasibility pass allocate the
   trajectories they return.  A float returned across a module
   boundary is boxed (dune's dev profile compiles with -opaque, so
   [Vec.dist] never inlines here), and so is one returned by a local
   function that does not inline, or captured by a closure.  The
   distances are therefore local [@inline] copies of [Vec.norm],
   [Vec.dist] and [Points.dist], operation for operation, as in
   [Median] and [Fleet_wfa]; every iterate lives in a dim-sized scratch
   vector, and an accepted point is written in place into a trajectory
   the phase owns. *)

(* [Vec.norm v]: a max-|·| scaling pass, then the scaled sum of
   squares. *)
let[@inline] norm v =
  let m = ref 0.0 in
  for i = 0 to Array.length v - 1 do
    let a = Float.abs v.(i) in
    if a > !m || Float.is_nan a then m := a
  done;
  let m = !m in
  if Float.equal m 0.0 then 0.0
  else if Float.equal m infinity then infinity
  else begin
    let acc = ref 0.0 in
    for i = 0 to Array.length v - 1 do
      let c = v.(i) /. m in
      acc := !acc +. (c *. c)
    done;
    m *. sqrt !acc
  end

(* [Vec.dist u v], the difference formed inside both passes. *)
let[@inline] dist u v =
  let n = Array.length u in
  let m = ref 0.0 in
  for i = 0 to n - 1 do
    let a = Float.abs (u.(i) -. v.(i)) in
    if a > !m || Float.is_nan a then m := a
  done;
  let m = !m in
  if Float.equal m 0.0 then 0.0
  else if Float.equal m infinity then infinity
  else begin
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      let c = (u.(i) -. v.(i)) /. m in
      acc := !acc +. (c *. c)
    done;
    m *. sqrt !acc
  end

(* [Points.dist points i v] over the raw request buffer [data]. *)
let[@inline] point_dist data ~dim i (v : Vec.t) =
  let base = i * dim in
  let m = ref 0.0 in
  for c = 0 to dim - 1 do
    let a = Float.abs (v.(c) -. Fbuf.get data (base + c)) in
    if a > !m || Float.is_nan a then m := a
  done;
  let m = !m in
  if Float.equal m 0.0 then 0.0
  else if Float.equal m infinity then infinity
  else begin
    let acc = ref 0.0 in
    for c = 0 to dim - 1 do
      let x = (v.(c) -. Fbuf.get data (base + c)) /. m in
      acc := !acc +. (x *. x)
    done;
    m *. sqrt !acc
  end

(* [Points.sum_dist points ~lo ~hi v]: a left fold in index order. *)
let[@inline] sum_point_dist data ~dim ~lo ~hi v =
  let acc = ref 0.0 in
  for i = lo to hi - 1 do
    acc := !acc +. point_dist data ~dim i v
  done;
  !acc

(* [Vec.clamp_step_into q ~from limit q]: [q] pulled back into the ball
   of radius [limit] around [from], with the same decision and lerp
   arithmetic.  [limit] is positive ([Config.make] checks it). *)
let[@inline] clamp_into ~from limit q =
  let gap = dist from q in
  if not (Float.is_finite gap) then
    invalid_arg "Convex_opt.solve: non-finite gap";
  if not (gap <= limit || Float.equal gap 0.0) then begin
    let s = limit /. gap in
    for i = 0 to Array.length q - 1 do
      q.(i) <- from.(i) +. (s *. (q.(i) -. from.(i)))
    done
  end

(* A solve's fixed inputs.  Round [t]'s charged requests — the ones
   priced at x_t — are the slice [[lo.(t), hi.(t))] of the flat request
   buffer [data]: round t under Move-first, round t+1 under Serve-first
   (the pre-move position of the next round), none for the last round
   under Serve-first.  Serve-first also charges round 0 at the fixed
   start, a constant the optimizer ignores; the final trajectory is
   priced with [Cost.trajectory], which accounts for everything. *)
type problem = {
  config : Config.t;
  packed : Instance.Packed.t;
  d_factor : float;
  limit : float;
  start : Vec.t;
  data : Fbuf.t;
  dim : int;
  lo : int array;
  hi : int array;
}

let problem (config : Config.t) (p : Instance.Packed.t) =
  let t_len = Instance.Packed.length p in
  let charged t =
    match config.Config.variant with
    | Variant.Move_first -> t
    | Variant.Serve_first -> if t + 1 < t_len then t + 1 else -1
  in
  let bound ~next t =
    let r = charged t in
    if r < 0 then 0 else Instance.Packed.round_start p (r + next)
  in
  {
    config;
    packed = p;
    d_factor = config.Config.d_factor;
    limit = Config.offline_limit config;
    start = Instance.Packed.start p;
    data = Points.raw (Instance.Packed.points p);
    dim = Instance.Packed.dim p;
    lo = Array.init t_len (bound ~next:0);
    hi = Array.init t_len (bound ~next:1);
  }

let price pb positions =
  Cost.total (Cost.trajectory pb.config ~start:pb.start positions pb.packed)

(* Forward feasibility pass on a fresh copy: clamp each move to the
   budget. *)
let restore_feasible pb positions =
  let q = Array.map Vec.copy positions in
  for t = 0 to Array.length q - 1 do
    clamp_into ~from:(if t = 0 then pb.start else q.(t - 1)) pb.limit q.(t)
  done;
  q

(* Greedy warm start: chase the current round's charged centroid.
   Every vector is fresh, so the phases may write into it. *)
let warm_start pb ~points t_len =
  let positions = Array.make t_len pb.start in
  for t = 0 to t_len - 1 do
    let prev = if t = 0 then pb.start else positions.(t - 1) in
    let lo = pb.lo.(t) and hi = pb.hi.(t) in
    if hi = lo then positions.(t) <- Vec.copy prev
    else begin
      let q = Array.make pb.dim 0.0 in
      Points.centroid_into points ~lo ~hi q;
      clamp_into ~from:prev pb.limit q;
      positions.(t) <- q
    end
  done;
  positions

(* Adds [w · ((1/n) · dvec)] into row [gbase] of [grad], with
   [n = ‖dvec‖]; a pull with [n < 1e-300] is skipped (adding the zero
   vector cannot flip any accumulator sign: the rows start at +0.0 and
   IEEE addition only yields -0.0 from two negative zeros, so the skip
   is bit-identical). *)
let[@inline] add_pull grad ~gbase dvec w =
  let n = norm dvec in
  if n >= 1e-300 then
    for c = 0 to Array.length dvec - 1 do
      Fbuf.set grad (gbase + c)
        (Fbuf.get grad (gbase + c) +. (w *. ((1.0 /. n) *. dvec.(c))))
    done

(* Subgradient of the total cost at [positions], accumulated in place
   into the flat [grad] buffer — row [t] is the slice
   [t·dim, (t+1)·dim) of an {!Fbuf.t}, outside the OCaml heap ([dvec]
   is dim-sized scratch for the difference vectors).  Each row sums the
   pull of the previous position (or the start), of the next position,
   then of the charged requests (weight 1; multiplying by 1.0 is exact,
   so the shared accumulation path changes no bits). *)
let subgradient_into pb positions ~(grad : Fbuf.t) ~dvec =
  let t_len = Array.length positions in
  let dim = pb.dim and data = pb.data in
  for t = 0 to t_len - 1 do
    let gbase = t * dim in
    for c = 0 to dim - 1 do
      Fbuf.set grad (gbase + c) 0.0
    done;
    let x = positions.(t) in
    let a = if t = 0 then pb.start else positions.(t - 1) in
    for c = 0 to dim - 1 do
      dvec.(c) <- x.(c) -. a.(c)
    done;
    add_pull grad ~gbase dvec pb.d_factor;
    if t + 1 < t_len then begin
      let a = positions.(t + 1) in
      for c = 0 to dim - 1 do
        dvec.(c) <- x.(c) -. a.(c)
      done;
      add_pull grad ~gbase dvec pb.d_factor
    end;
    for i = pb.lo.(t) to pb.hi.(t) - 1 do
      let base = i * dim in
      for c = 0 to dim - 1 do
        dvec.(c) <- x.(c) -. Fbuf.get data (base + c)
      done;
      add_pull grad ~gbase dvec 1.0
    done
  done

(* Bit-identical to [sqrt (Σ_t Vec.norm2 grad_row_t)] on the boxed
   rows: per row a left-to-right Σ g_c·g_c ([Vec.dot v v]), rows
   accumulated in order. *)
let[@inline] grad_norm (grad : Fbuf.t) ~t_len ~dim =
  let acc = ref 0.0 in
  for t = 0 to t_len - 1 do
    let base = t * dim in
    let row = ref 0.0 in
    for c = 0 to dim - 1 do
      let g = Fbuf.get grad (base + c) in
      row := !row +. (g *. g)
    done;
    acc := !acc +. !row
  done;
  sqrt !acc

(* Adds the pull of anchor [a] with weight [w] at [x] into the
   Weiszfeld sums [acc] (see [weiszfeld_into]). *)
let[@inline] pull_anchor acc ~dim ~w x a =
  let d = dist x a in
  if d > 1e-12 then begin
    let w = w /. d in
    acc.(dim) <- acc.(dim) +. w;
    for c = 0 to dim - 1 do
      acc.(c) <- acc.(c) +. (w *. a.(c))
    done
  end

(* One damped weighted Weiszfeld step, in place on [x], for
   min D·‖x − next‖ + D·‖x − prev‖ + Σ_{i ∈ [lo, hi)} ‖x − v_i‖, the
   pulls summed in that order: next anchor (absent when [has_next] is
   false), previous anchor, then the charged requests.  [acc] is
   dim + 1 floats of scratch: the weighted coordinate sums, then the
   weight sum.  [x] keeps its value when the weight sum is not
   positive. *)
let[@inline] weiszfeld_into pb ~prev ~next ~has_next ~lo ~hi ~acc x =
  let dim = pb.dim and data = pb.data in
  Array.fill acc 0 (dim + 1) 0.0;
  if has_next then pull_anchor acc ~dim ~w:pb.d_factor x next;
  pull_anchor acc ~dim ~w:pb.d_factor x prev;
  for i = lo to hi - 1 do
    let d = point_dist data ~dim i x in
    if d > 1e-12 then begin
      let w = 1.0 /. d in
      acc.(dim) <- acc.(dim) +. w;
      let base = i * dim in
      for c = 0 to dim - 1 do
        acc.(c) <- acc.(c) +. (w *. Fbuf.get data (base + c))
      done
    end
  done;
  let den = acc.(dim) in
  if not (den <= 0.0) then
    for c = 0 to dim - 1 do
      x.(c) <- acc.(c) /. den
    done

(* Projects [q] in place into B(a, limit) ∩ B(b, limit) by a few
   alternating projections; both balls have the same radius, and the
   intersection is non-empty whenever d(a, b) <= 2·limit. *)
let[@inline] project_two_balls ~limit a b q =
  let iter = ref 0 in
  let continue = ref true in
  while !continue && !iter < 50 do
    incr iter;
    clamp_into ~from:a limit q;
    clamp_into ~from:b limit q;
    if dist a q <= limit *. (1.0 +. 1e-12)
       && dist b q <= limit *. (1.0 +. 1e-12)
    then continue := false
  done

(* Local objective around x_t. *)
let[@inline] local_cost pb ~prev ~next ~has_next ~lo ~hi x =
  let moving =
    pb.d_factor
    *. (dist prev x +. if has_next then dist x next else 0.0)
  in
  moving +. sum_point_dist pb.data ~dim:pb.dim ~lo ~hi x

(* One coordinate sweep.  A visit to round t is a pure function of
   x_{t−1} (or the start), x_t, x_{t+1} and round t's charged requests,
   and only an accepted visit changes a position.  So a round whose
   visit was rejected stays [settled] — its next visit would be
   rejected again — until an accepted visit moves a neighbour; settled
   rounds are skipped.  Each visit runs projected Weiszfeld from x_t in
   the scratch [cand] (projecting back into the feasible lens after
   every step, so the iteration optimizes the constrained problem) and
   writes the result into x_t if it lowers the local objective. *)
let coordinate_sweep pb ~reverse ~acc ~cand ~settled positions =
  let t_len = Array.length positions in
  let dim = pb.dim and limit = pb.limit in
  let improved = ref false in
  for step = 0 to t_len - 1 do
    let t = if reverse then t_len - 1 - step else step in
    if not settled.(t) then begin
      let prev = if t = 0 then pb.start else positions.(t - 1) in
      let has_next = t + 1 < t_len in
      let next = if has_next then positions.(t + 1) else prev in
      let lo = pb.lo.(t) and hi = pb.hi.(t) in
      let x = positions.(t) in
      Array.blit x 0 cand 0 dim;
      for _ = 1 to 15 do
        weiszfeld_into pb ~prev ~next ~has_next ~lo ~hi ~acc cand;
        if has_next then project_two_balls ~limit prev next cand
        else clamp_into ~from:prev limit cand
      done;
      let accepted =
        local_cost pb ~prev ~next ~has_next ~lo ~hi cand
        < local_cost pb ~prev ~next ~has_next ~lo ~hi x -. 1e-15
      in
      if accepted then begin
        Array.blit cand 0 x 0 dim;
        improved := true;
        if t > 0 then settled.(t - 1) <- false;
        if has_next then settled.(t + 1) <- false
      end;
      settled.(t) <- not accepted
    end
  done;
  !improved

(* [pull −= k · unit(a − b)], the unit vector taken as
   (1/‖a − b‖)·(a − b) and the zero vector at ‖a − b‖ < 1e-300
   ([Vec.normalize]'s cut-off); [diff] is dim-sized scratch. *)
let sub_unit_pull pull ~k a b ~diff =
  for c = 0 to Array.length a - 1 do
    diff.(c) <- a.(c) -. b.(c)
  done;
  let n = norm diff in
  if n < 1e-300 then Array.fill diff 0 (Array.length diff) 0.0
  else begin
    let inv = 1.0 /. n in
    for c = 0 to Array.length diff - 1 do
      diff.(c) <- inv *. diff.(c)
    done
  end;
  for c = 0 to Array.length pull - 1 do
    pull.(c) <- pull.(c) -. (k *. diff.(c))
  done

(* [moved <- x + shift]. *)
let[@inline] shift_into moved x shift =
  for c = 0 to Array.length x - 1 do
    moved.(c) <- x.(c) +. shift.(c)
  done

(* Cost change of translating positions [lo, hi] by [shift], or
   [infinity] when a boundary step would exceed the budget ([moved] is
   dim-sized scratch).  A pure translation leaves the interior movement
   terms unchanged, so only the two boundary terms and the block's
   service terms are priced. *)
let[@inline] shift_delta pb ~before ~lo ~hi ~shift ~moved positions =
  let t_len = Array.length positions in
  let slack = pb.limit *. (1.0 +. 1e-12) in
  shift_into moved positions.(lo) shift;
  let entry_new = dist before moved in
  if entry_new > slack then infinity
  else begin
    let has_exit = hi + 1 < t_len in
    let exit_new =
      if has_exit then begin
        shift_into moved positions.(hi) shift;
        dist moved positions.(hi + 1)
      end
      else 0.0
    in
    if has_exit && not (exit_new <= slack) then infinity
    else begin
      let exit_delta =
        if has_exit then
          pb.d_factor
          *. (exit_new -. dist positions.(hi) positions.(hi + 1))
        else 0.0
      in
      let move_delta =
        pb.d_factor *. (entry_new -. dist before positions.(lo))
        +. exit_delta
      in
      let service_delta = ref 0.0 in
      for t = lo to hi do
        let x = positions.(t) in
        shift_into moved x shift;
        for r = pb.lo.(t) to pb.hi.(t) - 1 do
          service_delta :=
            !service_delta
            +. point_dist pb.data ~dim:pb.dim r moved
            -. point_dist pb.data ~dim:pb.dim r x
        done
      done;
      move_delta +. !service_delta
    end
  end

let magnitudes = [| 0.25; 1.0; 4.0 |]

(* Block translation: nonsmooth coordinate descent stalls when a whole
   run of consecutive positions must shift together (the interior
   movement terms hide the gain from any single-coordinate move).  This
   phase tries translating every dyadic block of the trajectory along
   its average service pull, with a small line search.

   The cost delta is evaluated incrementally ([shift_delta]), O(block)
   instead of O(T), and candidates whose boundary steps would exceed
   the budget are rejected outright (no restoration pass needed,
   interior steps remain feasible by construction).  [pull], [dir],
   [shift] and [moved] are dim-sized scratch. *)
let block_phase pb ~pull ~dir ~shift ~moved positions =
  let t_len = Array.length positions in
  if t_len < 2 then false
  else begin
    let improved = ref false in
    let dim = pb.dim and data = pb.data in
    let size = ref 2 in
    while !size <= t_len do
      let stride = Stdlib.max 1 (!size / 2) in
      let i = ref 0 in
      while !i < t_len do
        let lo = !i in
        let hi = Stdlib.min (t_len - 1) (lo + !size - 1) in
        let before = if lo = 0 then pb.start else positions.(lo - 1) in
        (* Average pull on the block: service terms inside, movement
           terms only at the block boundary.  Each term subtracts
           k · unit(x − a), the unit vector taken as (1/‖x − a‖)·(x − a)
           and skipped at ‖x − a‖ < 1e-300, where it is the zero vector
           (subtracting +0.0 changes no bit). *)
        Array.fill pull 0 dim 0.0;
        for t = lo to hi do
          let x = positions.(t) in
          for r = pb.lo.(t) to pb.hi.(t) - 1 do
            let n = point_dist data ~dim r x in
            if not (n < 1e-300) then begin
              let k = 1.0 /. n and base = r * dim in
              for c = 0 to dim - 1 do
                pull.(c) <-
                  pull.(c) -. (k *. (x.(c) -. Fbuf.get data (base + c)))
              done
            end
          done
        done;
        sub_unit_pull pull ~k:pb.d_factor positions.(lo) before ~diff:dir;
        if hi + 1 < t_len then
          sub_unit_pull pull ~k:pb.d_factor positions.(hi)
            positions.(hi + 1) ~diff:dir;
        let n = norm pull in
        if not (n < 1e-300) then begin
          let inv = 1.0 /. n in
          for c = 0 to dim - 1 do
            dir.(c) <- inv *. pull.(c)
          done;
          for j = 0 to Array.length magnitudes - 1 do
            let s = magnitudes.(j) *. pb.limit in
            for c = 0 to dim - 1 do
              shift.(c) <- s *. dir.(c)
            done;
            if shift_delta pb ~before ~lo ~hi ~shift ~moved positions < -1e-12
            then begin
              for t = lo to hi do
                shift_into positions.(t) positions.(t) shift
              done;
              improved := true
            end
          done
        end;
        i := !i + stride
      done;
      size := !size * 2
    done;
    !improved
  end

(* NaN compares false everywhere and would reach the warm start's
   clamp as a non-finite gap; reject it up front, as [Line_dp] does. *)
let validate (p : Instance.Packed.t) =
  let start = Instance.Packed.start p in
  for c = 0 to Array.length start - 1 do
    if not (Float.is_finite start.(c)) then
      invalid_arg "Convex_opt.solve: start position is not finite"
  done;
  let data = Points.raw (Instance.Packed.points p) in
  for i = 0 to Fbuf.length data - 1 do
    if not (Float.is_finite (Fbuf.get data i)) then
      invalid_arg
        "Convex_opt.solve: request coordinate is not finite (NaN or infinite)"
  done

let solve_packed ?(max_iter = 400) ?(sweeps = 30) (config : Config.t)
    (packed : Instance.Packed.t) =
  let t_len = Instance.Packed.length packed in
  if t_len = 0 then invalid_arg "Convex_opt.solve: empty instance";
  validate packed;
  let pb = problem config packed in
  let limit = pb.limit and dim = pb.dim in
  (* Solver-level scratch: flat gradient buffer (t_len rows of dim
     doubles, outside the OCaml heap), the Weiszfeld sums, dim-sized
     vectors, and one settled flag per round. *)
  let grad = Fbuf.create (t_len * dim) in
  let acc = Array.make (dim + 1) 0.0 in
  let cand = Array.make dim 0.0 in
  let dvec = Array.make dim 0.0 in
  let dir = Array.make dim 0.0 in
  let shift = Array.make dim 0.0 in
  let settled = Array.make t_len false in
  (* The incumbent: a trajectory no other value shares, so the
     subgradient phase may copy an improvement into it. *)
  let best =
    ref (warm_start pb ~points:(Instance.Packed.points packed) t_len)
  in
  let best_cost = ref (price pb !best) in
  let iterations = ref 0 in
  let sweeps_done = ref 0 in
  (* Projected subgradient with diminishing steps, from the incumbent.
     The iterate [x] is updated in place: gradient step, then the
     forward feasibility clamp. *)
  let subgradient_phase ~iters =
    let x = Array.map Vec.copy !best in
    let scale = limit *. sqrt (float_of_int t_len) in
    (try
       for k = 1 to iters do
         incr iterations;
         subgradient_into pb x ~grad ~dvec;
         let gn = grad_norm grad ~t_len ~dim in
         if gn < 1e-12 then raise Exit;
         let alpha = scale /. (gn *. sqrt (float_of_int k)) in
         for t = 0 to t_len - 1 do
           let xt = x.(t) and gbase = t * dim in
           for c = 0 to dim - 1 do
             xt.(c) <- xt.(c) -. (alpha *. Fbuf.get grad (gbase + c))
           done
         done;
         for t = 0 to t_len - 1 do
           clamp_into ~from:(if t = 0 then pb.start else x.(t - 1)) limit x.(t)
         done;
         let c = price pb x in
         if c < !best_cost then begin
           best_cost := c;
           for t = 0 to t_len - 1 do
             Array.blit x.(t) 0 !best.(t) 0 dim
           done
         end
       done
     with Exit -> ())
  in
  (* Monotone coordinate descent, alternating sweep direction, on the
     phase's own copy of the incumbent; every round starts unsettled.
     A sweep's [before] price is the previous sweep's [after]. *)
  let descent_phase ~rounds =
    let polished = Array.map Vec.copy !best in
    Array.fill settled 0 t_len false;
    let cost = ref (price pb polished) in
    (try
       for s = 1 to rounds do
         let before = !cost in
         let improved =
           coordinate_sweep pb ~reverse:(s mod 2 = 0) ~acc ~cand ~settled
             polished
         in
         incr sweeps_done;
         let after = price pb polished in
         cost := after;
         if (not improved) || before -. after <= 1e-10 *. Float.max 1.0 before
         then raise Exit
       done
     with Exit -> ());
    if !cost < !best_cost then begin
      best_cost := !cost;
      best := polished
    end
  in
  (* Interleave the phases; each restarts from the incumbent.  Block
     translation unsticks coordinate descent from segment-shift kinks,
     after which another descent round can refine further. *)
  let block_round () =
    let candidate = Array.map Vec.copy !best in
    if block_phase pb ~pull:dvec ~dir ~shift ~moved:cand candidate then begin
      let c = price pb candidate in
      if c < !best_cost then begin
        best_cost := c;
        best := candidate
      end
    end
  in
  let checkpoint label =
    Log.debug (fun m ->
        m "T=%d: %s, incumbent cost %.6g" t_len label !best_cost)
  in
  checkpoint "warm start";
  subgradient_phase ~iters:max_iter;
  checkpoint "subgradient 1";
  descent_phase ~rounds:sweeps;
  checkpoint "descent 1";
  block_round ();
  descent_phase ~rounds:sweeps;
  checkpoint "block + descent 2";
  subgradient_phase ~iters:(Stdlib.max 1 (max_iter / 2));
  block_round ();
  descent_phase ~rounds:sweeps;
  checkpoint "final";
  (* Numerical safety: force exact feasibility and reprice, so the
     reported cost is always achieved by the reported trajectory. *)
  let final = restore_feasible pb !best in
  {
    cost = price pb final;
    positions = final;
    subgradient_iterations = !iterations;
    descent_sweeps = !sweeps_done;
  }

let optimum_packed ?max_iter ?sweeps config packed =
  (solve_packed ?max_iter ?sweeps config packed).cost

let solve ?max_iter ?sweeps config inst =
  solve_packed ?max_iter ?sweeps config (Instance.pack inst)

let optimum ?max_iter ?sweeps config inst =
  (solve ?max_iter ?sweeps config inst).cost
