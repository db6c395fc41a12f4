module Engine = Mobile_server.Engine
module Instance = Mobile_server.Instance

type sample = { ratios : float array; mean : float; ci_lo : float; ci_hi : float }

let summarize rng ratios =
  if Array.length ratios = 0 then invalid_arg "Ratio.summarize: no samples";
  if Array.length ratios = 1 then
    { ratios; mean = ratios.(0); ci_lo = ratios.(0); ci_hi = ratios.(0) }
  else begin
    let ci = Stats.Bootstrap.mean_ci rng ratios in
    { ratios; mean = ci.Stats.Bootstrap.point;
      ci_lo = ci.Stats.Bootstrap.lo; ci_hi = ci.Stats.Bootstrap.hi }
  end

let cost_pair ?rng config alg packed ~opt =
  if opt <= 0.0 then invalid_arg "Ratio.cost_pair: non-positive optimum";
  Engine.total_cost_packed ?rng config alg packed /. opt

(* Every replicate stream is derived sequentially before the fan-out,
   so no task ever touches shared generator state; the per-cell results
   land in seed order and are independent of the execution order, so
   the fan-out is bit-identical at any jobs count (see
   docs/parallel.md). *)
let cells ~seeds base f =
  if seeds < 1 then invalid_arg "Ratio: seeds < 1";
  Exec.mapi f (Array.init seeds (Prng.Stream.replicate base))

let column_means rows =
  if Array.length rows = 0 then invalid_arg "Ratio.column_means: no rows";
  let accs = List.map (fun _ -> Stats.Running.create ()) rows.(0) in
  Array.iter (List.iter2 Stats.Running.add accs) rows;
  List.map Stats.Running.mean accs

let replicated ~seeds ~base_seed ~name f =
  let base = Prng.Stream.named ~name ~seed:base_seed in
  summarize (Prng.Stream.replicate base seeds)
    (cells ~seeds base (fun _ rng -> f rng))

let vs_construction ~seeds ~base_seed ~name config alg gen =
  replicated ~seeds ~base_seed ~name (fun rng ->
      let c = gen rng in
      Adversary.Construction.ratio_sample ~rng config alg c)

(* The solver-backed samplers pack each cell's instance once: the
   packed view feeds both the (cached) offline solve and the online
   pricing, and the content-addressed {!Offline.Opt_cache} turns the
   repeated solves of a sweep — the same replicate instances under the
   same model, across knob values and reruns — into lookups.  Cached
   and uncached sweeps are byte-identical at any jobs count. *)

let vs_opt ?max_iter ~seeds ~base_seed ~name config alg gen =
  replicated ~seeds ~base_seed ~name (fun rng ->
      let packed = Instance.pack (gen rng) in
      let opt = Offline.Opt_cache.optimum ?max_iter config packed in
      cost_pair ~rng config alg packed ~opt)

let vs_construction_tight ?max_iter ~seeds ~base_seed ~name config alg gen =
  replicated ~seeds ~base_seed ~name (fun rng ->
      let c = gen rng in
      let packed = Instance.pack c.Adversary.Construction.instance in
      let via_trajectory = Adversary.Construction.adversary_cost config c in
      let via_convex = Offline.Opt_cache.convex ?max_iter config packed in
      cost_pair ~rng config alg packed
        ~opt:(Float.min via_trajectory via_convex))
