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

(* Requests charged at position x_t, as a slice [lo, hi) of the flat
   packed request buffer: round t under Move-first, round t+1 under
   Serve-first (the pre-move position of the next round).  Serve-first
   additionally charges round 0 at the fixed start, which is a constant
   and can be ignored by the optimizer but must be added back to the
   reported cost — we simply price the final trajectory with
   [Cost.trajectory], which accounts for everything. *)
let charged_slice (config : Config.t) (p : Instance.Packed.t) t =
  match config.Config.variant with
  | Variant.Move_first ->
    (Instance.Packed.round_start p t, Instance.Packed.round_start p (t + 1))
  | Variant.Serve_first ->
    if t + 1 < Instance.Packed.length p then
      ( Instance.Packed.round_start p (t + 1),
        Instance.Packed.round_start p (t + 2) )
    else (0, 0)

let price config (p : Instance.Packed.t) positions =
  Cost.total
    (Cost.trajectory config ~start:(Instance.Packed.start p) positions p)

(* Forward feasibility pass: clamp each move to the budget. *)
let restore_feasible ~limit ~start positions =
  let prev = ref start in
  Array.map
    (fun p ->
      let q = Vec.clamp_step ~from:!prev limit p in
      prev := q;
      q)
    positions

(* Greedy warm start: chase the current round's charged centroid.
   [cvec] is a dim-sized scratch buffer for the round centroid. *)
let warm_start config (p : Instance.Packed.t) ~limit ~cvec =
  let t_len = Instance.Packed.length p in
  let points = Instance.Packed.points p in
  let pos = ref (Instance.Packed.start p) in
  Array.init t_len (fun t ->
      let lo, hi = charged_slice config p t in
      let next =
        if hi = lo then !pos
        else begin
          Points.centroid_into points ~lo ~hi cvec;
          Vec.clamp_step ~from:!pos limit cvec
        end
      in
      pos := next;
      next)

(* A subgradient of ‖a − b‖ with respect to a; zero at the kink. *)
let unit_towards a b =
  match Vec.normalize (Vec.sub a b) with
  | Some u -> u
  | None -> Vec.zero (Vec.dim a)

(* Subgradient of the total cost at [positions], accumulated in place
   into the caller-owned flat [grad] buffer — row [t] is the slice
   [t·dim, (t+1)·dim) of an {!Fbuf.t}, so the whole gradient
   sits outside the OCaml heap ([dvec] is dim-sized scratch for
   difference vectors).  Replicates the allocating formulation term for
   term: each pull adds [w · ((1/n) · d_c)] with [n = ‖d‖] computed by
   [Vec.norm] and pulls with [n < 1e-300] skipped (adding the zero
   vector cannot flip any accumulator sign: the rows start at +0.0 and
   IEEE addition only yields -0.0 from two negative zeros, so the skip
   is bit-identical). *)
let subgradient_into config (p : Instance.Packed.t) positions
    ~(grad : Fbuf.t) ~dvec =
  let t_len = Array.length positions in
  let d_factor = config.Config.d_factor in
  let data = Points.raw (Instance.Packed.points p) in
  let dim = Array.length dvec in
  let start = Instance.Packed.start p in
  for t = 0 to t_len - 1 do
    let gbase = t * dim in
    for c = 0 to dim - 1 do
      Fbuf.set grad (gbase + c) 0.0
    done;
    let x = positions.(t) in
    (* Accumulate w · unit(x − a) into row t for a boxed anchor a. *)
    let pull_vec w (a : Vec.t) =
      for c = 0 to dim - 1 do
        dvec.(c) <- x.(c) -. a.(c)
      done;
      let n = Vec.norm dvec in
      if n >= 1e-300 then
        for c = 0 to dim - 1 do
          Fbuf.set grad (gbase + c)
            (Fbuf.get grad (gbase + c)
             +. (w *. ((1.0 /. n) *. dvec.(c))))
        done
    in
    (* Movement into round t. *)
    pull_vec d_factor (if t = 0 then start else positions.(t - 1));
    (* Movement out of round t. *)
    if t + 1 < t_len then pull_vec d_factor positions.(t + 1);
    (* Service pulls, weight 1 (multiplying by 1.0 is exact, so the
       shared accumulation path changes no bits). *)
    let lo, hi = charged_slice config p t in
    for i = lo to hi - 1 do
      let base = i * dim in
      for c = 0 to dim - 1 do
        dvec.(c) <- x.(c) -. Fbuf.get data (base + c)
      done;
      let n = Vec.norm dvec in
      if n >= 1e-300 then
        for c = 0 to dim - 1 do
          Fbuf.set grad (gbase + c)
            (Fbuf.get grad (gbase + c)
             +. (1.0 *. ((1.0 /. n) *. dvec.(c))))
        done
    done
  done

(* Bit-identical to [sqrt (Σ_t Vec.norm2 grad_row_t)] on the boxed
   rows: per row a left-to-right Σ g_c·g_c ([Vec.dot v v]), rows
   accumulated in order. *)
let grad_norm (grad : Fbuf.t) ~t_len ~dim =
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

(* Project [p] into B(a, limit) ∩ B(b, limit) by a few alternating
   projections; both balls have the same radius, and the intersection
   is non-empty whenever d(a, b) <= 2·limit. *)
let project_two_balls ~limit a b p =
  let q = ref p in
  let iter = ref 0 in
  let continue = ref true in
  while !continue && !iter < 50 do
    incr iter;
    q := Vec.clamp_step ~from:a limit !q;
    q := Vec.clamp_step ~from:b limit !q;
    if Vec.dist a !q <= limit *. (1.0 +. 1e-12)
       && Vec.dist b !q <= limit *. (1.0 +. 1e-12)
    then continue := false
  done;
  !q

(* Adds the pull of a boxed anchor [a] with weight [w] at [x] into the
   Weiszfeld sums [acc] (see [weiszfeld_step]). *)
let pull_anchor ~acc ~w x (a : Vec.t) =
  let dim = Array.length x in
  let d = Vec.dist x a in
  if d > 1e-12 then begin
    let w = w /. d in
    acc.(dim) <- acc.(dim) +. w;
    for c = 0 to dim - 1 do
      acc.(c) <- acc.(c) +. (w *. a.(c))
    done
  end

(* Damped weighted Weiszfeld step for
   min D·‖x − next‖ + D·‖x − prev‖ + Σ_{i ∈ [lo, hi)} ‖x − v_i‖, the
   pulls summed in that order: next anchor (absent in the last round),
   previous anchor, then the charged requests.  [acc] is dim + 1 floats
   of scratch: the weighted coordinate sums, then the weight sum. *)
let weiszfeld_step ~d_factor ~next ~prev points ~lo ~hi ~acc x =
  let dim = Array.length x in
  Array.fill acc 0 (dim + 1) 0.0;
  (match next with Some n -> pull_anchor ~acc ~w:d_factor x n | None -> ());
  pull_anchor ~acc ~w:d_factor x prev;
  let data = Points.raw points in
  for i = lo to hi - 1 do
    let d = Points.dist points i x in
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
  if den <= 0.0 then x
  else begin
    let r = Array.make dim 0.0 in
    for c = 0 to dim - 1 do
      r.(c) <- acc.(c) /. den
    done;
    r
  end

let coordinate_sweep config (p : Instance.Packed.t) ~limit ~reverse ~acc
    positions =
  let t_len = Array.length positions in
  let d_factor = config.Config.d_factor in
  let points = Instance.Packed.points p in
  let improved = ref false in
  for step = 0 to t_len - 1 do
    let t = if reverse then t_len - 1 - step else step in
    let prev = if t = 0 then Instance.Packed.start p else positions.(t - 1) in
    let next = if t + 1 < t_len then Some positions.(t + 1) else None in
    let lo, hi = charged_slice config p t in
    (* Local objective around x_t. *)
    let local x =
      let moving =
        d_factor
        *. (Vec.dist prev x
            +. match next with
               | Some n -> Vec.dist x n
               | None -> 0.0)
      in
      moving +. Points.sum_dist points ~lo ~hi x
    in
    (* Projected Weiszfeld: project back into the feasible lens after
       every step, so the iteration optimizes the constrained problem
       rather than projecting once at the end. *)
    let project q =
      match next with
      | Some n -> project_two_balls ~limit prev n q
      | None -> Vec.clamp_step ~from:prev limit q
    in
    let candidate = ref positions.(t) in
    for _ = 1 to 15 do
      candidate :=
        project
          (weiszfeld_step ~d_factor ~next ~prev points ~lo ~hi ~acc
             !candidate)
    done;
    let projected = !candidate in
    if local projected < local positions.(t) -. 1e-15 then begin
      positions.(t) <- projected;
      improved := true
    end
  done;
  !improved

(* Block translation: nonsmooth coordinate descent stalls when a whole
   run of consecutive positions must shift together (the interior
   movement terms hide the gain from any single-coordinate move).  This
   phase tries translating every dyadic block of the trajectory along
   its average service pull, with a small line search.

   A pure translation leaves interior movement terms unchanged, so the
   cost delta is evaluated incrementally — service change inside the
   block plus the two boundary movement terms, O(block) instead of
   O(T) — and candidates whose boundary steps would exceed the budget
   are rejected outright (no restoration pass needed, interior steps
   remain feasible by construction). *)
let block_phase config (p : Instance.Packed.t) ~limit positions =
  let t_len = Array.length positions in
  if t_len < 2 then false
  else begin
    let improved = ref false in
    let dim = Vec.dim positions.(0) in
    let d_factor = config.Config.d_factor in
    let points = Instance.Packed.points p in
    let data = Points.raw points in
    let slack = limit *. (1.0 +. 1e-12) in
    let size = ref 2 in
    while !size <= t_len do
      let stride = Stdlib.max 1 (!size / 2) in
      let i = ref 0 in
      while !i < t_len do
        let lo = !i in
        let hi = Stdlib.min (t_len - 1) (lo + !size - 1) in
        let before =
          if lo = 0 then Instance.Packed.start p else positions.(lo - 1)
        in
        (* Average pull on the block: service terms inside, movement
           terms only at the block boundary.  Each term subtracts
           k · unit(x − a), the unit vector taken as (1/‖x − a‖)·(x − a)
           and skipped at ‖x − a‖ < 1e-300, where it is the zero vector
           (subtracting +0.0 changes no bit). *)
        let pull = Array.make dim 0.0 in
        let sub_scaled k (u : Vec.t) =
          for c = 0 to dim - 1 do
            pull.(c) <- pull.(c) -. (k *. u.(c))
          done
        in
        for t = lo to hi do
          let x = positions.(t) in
          let r_lo, r_hi = charged_slice config p t in
          for r = r_lo to r_hi - 1 do
            let n = Points.dist points r x in
            if not (n < 1e-300) then begin
              let k = 1.0 /. n and base = r * dim in
              for c = 0 to dim - 1 do
                pull.(c) <-
                  pull.(c) -. (k *. (x.(c) -. Fbuf.get data (base + c)))
              done
            end
          done
        done;
        sub_scaled d_factor (unit_towards positions.(lo) before);
        if hi + 1 < t_len then
          sub_scaled d_factor (unit_towards positions.(hi) positions.(hi + 1));
        (match Vec.normalize pull with
         | None -> ()
         | Some u ->
           (* Incremental delta for shifting [lo, hi] by [shift]. *)
           let delta_cost shift =
             let shifted t = Vec.add positions.(t) shift in
             let entry_new = Vec.dist before (shifted lo) in
             if entry_new > slack then None
             else begin
               let exit_ok, exit_delta =
                 if hi + 1 < t_len then begin
                   let exit_new = Vec.dist (shifted hi) positions.(hi + 1) in
                   ( exit_new <= slack,
                     d_factor
                     *. (exit_new -. Vec.dist positions.(hi) positions.(hi + 1))
                   )
                 end
                 else (true, 0.0)
               in
               if not exit_ok then None
               else begin
                 let move_delta =
                   d_factor *. (entry_new -. Vec.dist before positions.(lo))
                   +. exit_delta
                 in
                 let service_delta = ref 0.0 in
                 for t = lo to hi do
                   let x = positions.(t) and x' = shifted t in
                   let r_lo, r_hi = charged_slice config p t in
                   for r = r_lo to r_hi - 1 do
                     service_delta :=
                       !service_delta +. Points.dist points r x'
                       -. Points.dist points r x
                   done
                 done;
                 Some (move_delta +. !service_delta)
               end
             end
           in
           List.iter
             (fun mag ->
               let shift = Vec.scale (mag *. limit) u in
               match delta_cost shift with
               | Some delta when delta < -1e-12 ->
                 for t = lo to hi do
                   positions.(t) <- Vec.add positions.(t) shift
                 done;
                 improved := true
               | Some _ | None -> ())
             [ 0.25; 1.0; 4.0 ]);
        i := !i + stride
      done;
      size := !size * 2
    done;
    !improved
  end

let solve_packed ?(max_iter = 400) ?(sweeps = 30) (config : Config.t)
    (packed : Instance.Packed.t) =
  let t_len = Instance.Packed.length packed in
  if t_len = 0 then invalid_arg "Convex_opt.solve: empty instance";
  let limit = Config.offline_limit config in
  let dim = Instance.Packed.dim packed in
  (* Solver-level scratch: flat gradient buffer (t_len rows of dim
     doubles, outside the OCaml heap), difference vector, centroid,
     Weiszfeld sums. *)
  let grad = Fbuf.create (t_len * dim) in
  let dvec = Array.make dim 0.0 in
  let cvec = Array.make dim 0.0 in
  let acc = Array.make (dim + 1) 0.0 in
  let best = ref (warm_start config packed ~limit ~cvec) in
  let best_cost = ref (price config packed !best) in
  let iterations = ref 0 in
  let sweeps_done = ref 0 in
  (* Projected subgradient with diminishing steps, from [start_from].
     The iterate [x] is updated in place: gradient step, then the
     forward feasibility clamp — the same arithmetic as the allocating
     [Vec.sub]/[Vec.scale]/[restore_feasible] chain it replaces. *)
  let subgradient_phase ~iters start_from =
    let x = Array.map Vec.copy start_from in
    let scale = limit *. sqrt (float_of_int t_len) in
    let start = Instance.Packed.start packed in
    (try
       for k = 1 to iters do
         incr iterations;
         subgradient_into config packed x ~grad ~dvec;
         let gn = grad_norm grad ~t_len ~dim in
         if gn < 1e-12 then raise Exit;
         let alpha = scale /. (gn *. sqrt (float_of_int k)) in
         for t = 0 to t_len - 1 do
           let xt = x.(t) and gbase = t * dim in
           for c = 0 to dim - 1 do
             xt.(c) <- xt.(c) -. (alpha *. Fbuf.get grad (gbase + c))
           done
         done;
         let prev = ref start in
         for t = 0 to t_len - 1 do
           Vec.clamp_step_into x.(t) ~from:!prev limit x.(t);
           prev := x.(t)
         done;
         let c = price config packed x in
         if c < !best_cost then begin
           best_cost := c;
           best := Array.map Vec.copy x
         end
       done
     with Exit -> ())
  in
  (* Monotone coordinate descent, alternating sweep direction. *)
  let descent_phase ~rounds start_from =
    let polished = Array.map Vec.copy start_from in
    (try
       for s = 1 to rounds do
         let before = price config packed polished in
         let improved =
           coordinate_sweep config packed ~limit ~reverse:(s mod 2 = 0) ~acc
             polished
         in
         incr sweeps_done;
         let after = price config packed polished in
         if (not improved) || before -. after <= 1e-10 *. Float.max 1.0 before
         then raise Exit
       done
     with Exit -> ());
    let c = price config packed polished in
    if c < !best_cost then begin
      best_cost := c;
      best := polished
    end
  in
  (* Interleave the phases; each restarts from the incumbent.  Block
     translation unsticks coordinate descent from segment-shift kinks,
     after which another descent round can refine further. *)
  let block_round () =
    let candidate = Array.map Vec.copy !best in
    if block_phase config packed ~limit candidate then begin
      let c = price config packed candidate in
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
  subgradient_phase ~iters:max_iter !best;
  checkpoint "subgradient 1";
  descent_phase ~rounds:sweeps !best;
  checkpoint "descent 1";
  block_round ();
  descent_phase ~rounds:sweeps !best;
  checkpoint "block + descent 2";
  subgradient_phase ~iters:(Stdlib.max 1 (max_iter / 2)) !best;
  block_round ();
  descent_phase ~rounds:sweeps !best;
  checkpoint "final";
  (* Numerical safety: force exact feasibility and reprice, so the
     reported cost is always achieved by the reported trajectory. *)
  let final =
    restore_feasible ~limit ~start:(Instance.Packed.start packed) !best
  in
  {
    cost = price config packed final;
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
