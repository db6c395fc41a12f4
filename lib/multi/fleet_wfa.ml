[@@@no_boxed_floats]

module Vec = Geometry.Vec
module Fbuf = Geometry.Fbuf
module Config = Mobile_server.Config
module Instance = Mobile_server.Instance

(* The Work-Function Algorithm over the serve-assignment relaxation
   (docs/fleet.md).  A config is a multiset of [k] positions drawn from
   the {e pool} — the start plus every request seen so far, stored in a
   growable Fbuf — encoded as a sorted tuple of pool indices, stored
   flat: config [c] is [configs.(c·k) .. configs.(c·k + k − 1)].  The
   work function w_t over configs updates {e incrementally} per request
   on reused rows: each beamed config spawns [k] one-server children,
   children are deduped keeping the smaller value (the lazy DP step —
   in the relaxation only the serving server needs to move, so the
   one-replacement update is exact), sorted by (value, config) and
   truncated to the beam.  The algorithm's own labeled config is
   force-kept in the beam, so its decision values always exist.  With a
   beam at least the reachable config count the DP is untruncated and
   [opt_estimate] equals the relaxation optimum (pinned against the
   brute enumerator in test_fleet); any smaller beam keeps
   [opt_estimate >= OPT_relax].

   The new request's pool index [p] exceeds every stored index, so the
   sorted child [cfg[i := p]] is [cfg] with entry [i] dropped and [p]
   appended: no child is ever sorted.  Apart from the pool's amortized
   growth, a request allocates nothing. *)

type t = {
  k : int;
  dim : int;
  d_factor : float;
  beam_cap : int;
  mutable pool : Fbuf.t;
  mutable pool_len : int;
  (* [D·d(pool_j, pool_p)] for the request [p] being observed, valid
     where [cost_at.(j) = p]; one entry per pool slot. *)
  mutable cost_row : Fbuf.t;
  mutable cost_at : int array;
  (* Beam: [beam_len] flat tuples in [configs], values in [w]. *)
  configs : int array;
  w : Fbuf.t;
  mutable beam_len : int;
  (* Child scratch: up to [k·beam_cap] flat tuples in [child_configs],
     values in [child_w]; [order] ranks them, [spare] is the merge
     buffer. *)
  child_configs : int array;
  child_w : Fbuf.t;
  order : int array;
  spare : int array;
  (* Open-addressing dedup over child tuples: a child slot or −1 per
     entry, linear probing; the length is a power of two at least
     [2·k·beam_cap]. *)
  table : int array;
  (* The algorithm's own labeled config, its sorted tuple, a probe
     tuple, and its accumulated (relaxation-level) service cost. *)
  cur : int array;
  cur_key : int array;
  probe : int array;
  mutable cur_w : float;
  mutable serve_cost : float;
}

let create ~beam ~k ~d_factor (start : Vec.t) =
  if k < 1 then invalid_arg "Fleet_wfa: k < 1";
  if beam < 1 then invalid_arg "Fleet_wfa: beam < 1";
  let dim = Vec.dim start in
  let pool = Fbuf.create (dim * 16) in
  Fbuf.blit_from_array start 0 pool 0 dim;
  let children = k * beam in
  let table_len = ref 16 in
  while !table_len < 2 * children do
    table_len := 2 * !table_len
  done;
  {
    k;
    dim;
    d_factor;
    beam_cap = beam;
    pool;
    pool_len = 1;
    cost_row = Fbuf.create 16;
    cost_at = Array.make 16 (-1);
    configs = Array.make (beam * k) 0;
    w = Fbuf.create beam;
    beam_len = 1;
    child_configs = Array.make (children * k) 0;
    child_w = Fbuf.create children;
    order = Array.make children 0;
    spare = Array.make children 0;
    table = Array.make !table_len (-1);
    cur = Array.make k 0;
    cur_key = Array.make k 0;
    probe = Array.make k 0;
    cur_w = 0.0;
    serve_cost = 0.0;
  }

(* Fills [cost_row.(j)] with [D·d(pool_j, pool_p)] unless it already
   holds it.  The distance is [Vec.dist]'s arithmetic, operation for
   operation, with its [Float.max]-free scaling max. *)
let memo_move_cost t j p =
  if t.cost_at.(j) <> p then begin
    let d = t.dim in
    let ba = j * d and bb = p * d in
    let pool = t.pool in
    let m = ref 0.0 in
    for c = 0 to d - 1 do
      let a = Float.abs (Fbuf.get pool (ba + c) -. Fbuf.get pool (bb + c)) in
      if a > !m || Float.is_nan a then m := a
    done;
    let m = !m in
    let dist =
      if Float.equal m 0.0 then 0.0
      else if Float.equal m infinity then infinity
      else begin
        let acc = ref 0.0 in
        for c = 0 to d - 1 do
          let x = (Fbuf.get pool (ba + c) -. Fbuf.get pool (bb + c)) /. m in
          acc := !acc +. (x *. x)
        done;
        m *. sqrt !acc
      end
    in
    Fbuf.set t.cost_row j (t.d_factor *. dist);
    t.cost_at.(j) <- p
  end

let pool_get t i = Array.init t.dim (fun c -> Fbuf.get t.pool ((i * t.dim) + c))

let append_pool t (r : Vec.t) =
  if Array.length r <> t.dim then
    invalid_arg "Fleet_wfa: request dimension mismatch";
  if (t.pool_len + 1) * t.dim > Fbuf.length t.pool then begin
    let fresh = Fbuf.create (2 * Fbuf.length t.pool) in
    Fbuf.blit t.pool 0 fresh 0 (t.pool_len * t.dim);
    t.pool <- fresh
  end;
  if t.pool_len >= Array.length t.cost_at then begin
    t.cost_row <- Fbuf.create (2 * t.pool_len);
    t.cost_at <- Array.make (2 * t.pool_len) (-1)
  end;
  Fbuf.blit_from_array r 0 t.pool (t.pool_len * t.dim) t.dim;
  t.pool_len <- t.pool_len + 1;
  t.pool_len - 1

(* The table entry holding the child tuple equal to
   [src.(off) .. src.(off + k − 1)], or the empty entry where it
   belongs. *)
let find t src off =
  let k = t.k and table = t.table and cc = t.child_configs in
  let mask = Array.length table - 1 in
  let h = ref 0 in
  for i = off to off + k - 1 do
    h := (!h lxor src.(i)) * 0x100000001b3
  done;
  let pos = ref ((!h lxor (!h lsr 29)) land mask) in
  let searching = ref true in
  while !searching do
    let s = table.(!pos) in
    if s < 0 then searching := false
    else begin
      let base = s * k in
      let j = ref 0 in
      while !j < k && cc.(base + !j) = src.(off + !j) do
        incr j
      done;
      if !j = k then searching := false else pos := (!pos + 1) land mask
    end
  done;
  !pos

(* The beam order: value by [Float.compare], then the tuple
   lexicographically — a strict total order on deduped children. *)
let child_cmp t a b =
  let c = Float.compare (Fbuf.get t.child_w a) (Fbuf.get t.child_w b) in
  if c <> 0 then c
  else begin
    let k = t.k and cc = t.child_configs in
    let i = ref 0 in
    while !i < k && cc.((a * k) + !i) = cc.((b * k) + !i) do
      incr i
    done;
    if !i = k then 0 else compare cc.((a * k) + !i) cc.((b * k) + !i)
  end

(* Sorts [order.(lo) .. order.(hi − 1)] by [child_cmp]: merge sort
   through [spare]. *)
let rec sort_children t lo hi =
  if hi - lo > 1 then begin
    let order = t.order and spare = t.spare in
    let mid = (lo + hi) / 2 in
    sort_children t lo mid;
    sort_children t mid hi;
    Array.blit order lo spare lo (mid - lo);
    let i = ref lo and j = ref mid and o = ref lo in
    while !i < mid do
      if !j < hi && child_cmp t order.(!j) spare.(!i) < 0 then begin
        order.(!o) <- order.(!j);
        incr j
      end
      else begin
        order.(!o) <- spare.(!i);
        incr i
      end;
      incr o
    done
  end

(* Writes the sorted tuple [src] with one entry equal to [x] dropped and
   [p] appended to [dst] ([dst] may be [src]). *)
let replace_sorted ~k src x p dst =
  let n = ref 0 and dropped = ref false in
  for j = 0 to k - 1 do
    let y = src.(j) in
    if (not !dropped) && y = x then dropped := true
    else begin
      dst.(!n) <- y;
      incr n
    end
  done;
  dst.(k - 1) <- p

(* Feed one request; returns the serving server's index in the
   algorithm's labeled config (strict argmin, lowest index). *)
let observe t (r : Vec.t) =
  let p = append_pool t r in
  let k = t.k in
  let configs = t.configs and cc = t.child_configs and table = t.table in
  (* Spawn and dedup children of every beamed config. *)
  Array.fill table 0 (Array.length table) (-1);
  let nchild = ref 0 in
  for c = 0 to t.beam_len - 1 do
    let base = Fbuf.get t.w c in
    let off = c * k in
    for i = 0 to k - 1 do
      let j = configs.(off + i) in
      memo_move_cost t j p;
      let w' = base +. Fbuf.get t.cost_row j in
      let dst = !nchild * k in
      for e = 0 to i - 1 do
        cc.(dst + e) <- configs.(off + e)
      done;
      for e = i + 1 to k - 1 do
        cc.(dst + e - 1) <- configs.(off + e)
      done;
      cc.(dst + k - 1) <- p;
      let pos = find t cc dst in
      let slot = table.(pos) in
      if slot >= 0 then begin
        if w' < Fbuf.get t.child_w slot then Fbuf.set t.child_w slot w'
      end
      else begin
        table.(pos) <- !nchild;
        Fbuf.set t.child_w !nchild w';
        incr nchild
      end
    done
  done;
  (* The algorithm's decision: serve with the server minimizing
     w_t(cur[i := r]) + D·d(cur_i, r); those children all exist in the
     table because cur is force-kept in the beam. *)
  let best_i = ref 0 and best_v = ref infinity and best_w = ref infinity in
  for i = 0 to k - 1 do
    replace_sorted ~k t.cur_key t.cur.(i) p t.probe;
    let slot = table.(find t t.probe 0) in
    if slot < 0 then raise Not_found;
    let w' = Fbuf.get t.child_w slot in
    memo_move_cost t t.cur.(i) p;
    let v = w' +. Fbuf.get t.cost_row t.cur.(i) in
    if v < !best_v then begin
      best_i := i;
      best_v := v;
      best_w := w'
    end
  done;
  t.serve_cost <- t.serve_cost +. Fbuf.get t.cost_row t.cur.(!best_i);
  replace_sorted ~k t.cur_key t.cur.(!best_i) p t.cur_key;
  t.cur.(!best_i) <- p;
  t.cur_w <- !best_w;
  (* New beam: children sorted by (value, tuple), truncated, with the
     algorithm's config force-kept. *)
  let nchild = !nchild in
  for s = 0 to nchild - 1 do
    t.order.(s) <- s
  done;
  sort_children t 0 nchild;
  let keep = if nchild < t.beam_cap then nchild else t.beam_cap in
  let cur_kept = ref false in
  for c = 0 to keep - 1 do
    let slot = t.order.(c) in
    Array.blit cc (slot * k) configs (c * k) k;
    Fbuf.set t.w c (Fbuf.get t.child_w slot);
    let e = ref 0 in
    while !e < k && cc.((slot * k) + !e) = t.cur_key.(!e) do
      incr e
    done;
    if !e = k then cur_kept := true
  done;
  t.beam_len <-
    (if !cur_kept then keep
     else begin
       let c = if keep = t.beam_cap then keep - 1 else keep in
       Array.blit t.cur_key 0 configs (c * k) k;
       Fbuf.set t.w c t.cur_w;
       if keep < t.beam_cap then keep + 1 else keep
     end);
  !best_i

let opt_estimate t =
  let best = ref (Fbuf.get t.w 0) in
  for c = 1 to t.beam_len - 1 do
    let w = Fbuf.get t.w c in
    if w < !best then best := w
  done;
  !best

let serve_cost t = t.serve_cost

let default_beam = 64

type outcome = { serve_cost : float; opt_estimate : float }

let run ?(beam = default_beam) ~k (config : Config.t) (inst : Instance.t) =
  let t = create ~beam ~k ~d_factor:config.Config.d_factor inst.Instance.start in
  Array.iter (fun round -> Array.iter (fun r -> ignore (observe t r)) round)
    inst.Instance.steps;
  { serve_cost = serve_cost t; opt_estimate = opt_estimate t }

(* The engine-facing wrapper: per round, feed each request to the DP in
   arrival order, then propose the labeled config's positions; the
   internal fleet (and the engine again, idempotently) clamps the
   proposal onto the online budget, exactly like [kmeans_tracker]. *)
let algorithm ?(beam = default_beam) () =
  {
    Fleet_algorithm.name = "fleet-wfa";
    make =
      (fun ?rng:_ (config : Config.t) ~start ->
        let k = Array.length start in
        if k = 0 then invalid_arg "fleet-wfa: empty fleet";
        let t = create ~beam ~k ~d_factor:config.Config.d_factor start.(0) in
        let fleet = ref (Array.map Vec.copy start) in
        let limit = Config.online_limit config in
        fun requests ->
          Array.iter (fun r -> ignore (observe t r)) requests;
          let proposed = Array.init k (fun i -> pool_get t t.cur.(i)) in
          let clamped = Fleet.clamp ~limit ~from:!fleet proposed in
          fleet := clamped;
          clamped);
  }
