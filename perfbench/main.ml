(* One benchmark run: one workload, one seed, in this process on one
   domain.  Untraced runs (--trace 0) report the end-to-end metrics;
   traced runs (--trace 1) replay an untraced pass's work with spans
   around every call into a layer and report per-layer self times.
   The last line of standard output is the result JSON; the full
   record goes to perfbench/out/. *)

open Perfbench

type workload = {
  run : Run.ctx -> Run.result;
  per_second : float;
      (** Measured units (ticks, seeds, instances) per requested second:
          the work is fixed, sized to take about [--seconds] on a
          2-vCPU Xeon VM, so every run of a seed does the same work. *)
  setups : int;  (** Set-ups per untraced pass; setup_s is their median. *)
  tail_per_unit : int;  (** Tail samples per unit: ticks, or cells. *)
}

(* The measured phase also ends at [guard] times the requested seconds,
   so that a host far slower than planned cannot push the runs past
   their time limit; the record then shows fewer units than planned. *)
let guard = 1.25

(* Short set-ups are repeated more often: their times jitter more. *)
let workloads =
  [ ("serve-stream",
     { run = Serve_load.run Serve_load.stream; per_second = 3.0; setups = 3;
       tail_per_unit = 1 });
    ("serve-crash",
     { run = Serve_load.run Serve_load.crash; per_second = 8.5; setups = 3;
       tail_per_unit = 1 });
    ("ratio-line",
     { run = Ratio_load.run; per_second = 12.0; setups = 5; tail_per_unit = 4 });
    ("fleet-f1",
     { run = Fleet_load.run; per_second = 2.7; setups = 9; tail_per_unit = 3 }) ]

let out_dir = Filename.concat "perfbench" "out"

let spec_of name =
  List.find (fun s -> s.Metrics.name = name) Metrics.end_to_end

let ms x = 1e3 *. x

type e2e = {
  values : (Metrics.spec * float) list;
  rows : (string * float * string * int * string) list;
}

(* The tail percentile is chosen from the run's planned sample count,
   [planned], not from the count it reached: a phase the guard cut
   short must still report the same percentile as every other run. *)
let end_to_end ~planned (r : Run.result) =
  let sorted = Pct.sorted r.Run.lat in
  let n = Array.length sorted in
  let tail = Pct.sorted r.Run.tail in
  let n_tail = Array.length tail in
  let tail_ppm, tail_label = Pct.tail ~n:planned in
  let nsetup = Array.length r.Run.setup_s in
  let values =
    [ ("throughput", float_of_int r.Run.ops /. r.Run.wall_s, n,
       Printf.sprintf "%d ops over %.3f s" r.Run.ops r.Run.wall_s);
      ("latency_p50_ms", ms (Pct.at sorted ~ppm:50_000), n, "p50");
      ("latency_tail_ms", ms (Pct.at tail ~ppm:tail_ppm), n_tail,
       Printf.sprintf "%s of %d %s latencies, %d beyond it (planned %d)"
         tail_label n_tail r.Run.tail_unit (Pct.beyond ~ppm:tail_ppm n_tail)
         planned);
      ("peak_rss_mb", r.Run.rss_mb, 1, "VmHWM at the end of the measured phase");
      ("setup_s", Stats.Quantile.median r.Run.setup_s, nsetup,
       Printf.sprintf "median of %d set-ups, range %.4f-%.4f s" nsetup
         (Array.fold_left Float.min infinity r.Run.setup_s)
         (Array.fold_left Float.max neg_infinity r.Run.setup_s)) ]
  in
  let failed_share =
    if r.Run.attempted = 0 then nan
    else float_of_int r.Run.failed /. float_of_int r.Run.attempted
  in
  {
    values = List.map (fun (name, v, _, _) -> (spec_of name, v)) values;
    rows =
      List.map
        (fun (name, v, n, note) -> (name, v, (spec_of name).Metrics.unit, n, note))
        values
      @ [ ("failed_share", failed_share, "share", r.Run.attempted,
           Printf.sprintf "%d of %d ops failed" r.Run.failed r.Run.attempted) ];
  }

let print_rows rows =
  Printf.printf "%-36s %18s  %-6s %9s  %s\n" "metric" "value" "unit" "samples" "note";
  List.iter
    (fun (name, v, unit, n, note) ->
      Printf.printf "%-36s %18.6f  %-6s %9d  %s\n" name v unit n note)
    rows

let row_json (name, v, unit, n, note) =
  Metrics.Obj
    [ ("name", Metrics.Str name); ("value", Metrics.Num v);
      ("unit", Metrics.Str unit); ("samples", Metrics.Int n);
      ("note", Metrics.Str note) ]

let write_file path f =
  try
    (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f oc)
  with Sys_error msg -> Printf.eprintf "perfbench: cannot write %s: %s\n" path msg

let fail_usage msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  prerr_endline
    ("workloads: " ^ String.concat ", " (List.map fst workloads));
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let args =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 untraced or traced run") ]
  in
  (try
     Arg.parse_argv Sys.argv args
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       "main.exe"
   with Arg.Bad msg | Arg.Help msg -> fail_usage (String.trim msg));
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None -> fail_usage (Printf.sprintf "unknown workload %S" !workload)
  in
  if !seconds < 1 then fail_usage "--seconds must be at least 1";
  if !trace <> 0 && !trace <> 1 then fail_usage "--trace must be 0 or 1";
  (* The benchmark reads and writes inside its checkout only. *)
  Offline.Opt_cache.set_disk_dir None;
  let calib0 = Host.calib_ms () in
  let units secs = Stdlib.max 1 (int_of_float (Float.round (w.per_second *. secs))) in
  let planned secs = w.tail_per_unit * units secs in
  let untraced secs =
    w.run
      { Run.seed = !seed; units = units secs; deadline_s = guard *. secs;
        setups = w.setups; traced = false; tracer = Tracer.create ~capacity:1 () }
  in
  let stem = Printf.sprintf "%s-seed%d-trace%d" !workload !seed !trace in
  let header =
    Printf.sprintf "perfbench %s seed=%d seconds=%d trace=%d" !workload !seed
      !seconds !trace
  in
  let write_record calib1 fields =
    let host =
      Metrics.Obj
        [ ("domains", Metrics.Int (Host.domains ()));
          ("ocaml_version", Metrics.Str Host.ocaml_version);
          ("flambda", Metrics.Bool Host.flambda);
          ("calib_ms_start", Metrics.Num calib0);
          ("calib_ms_end", Metrics.Num calib1) ]
    in
    write_file (Filename.concat out_dir (stem ^ ".json")) (fun oc ->
        output_string oc
          (Metrics.to_string
             (Metrics.Obj
                ([ ("workload", Metrics.Str !workload); ("seed", Metrics.Int !seed);
                   ("seconds", Metrics.Int !seconds); ("trace", Metrics.Int !trace);
                   ("host", host) ]
                 @ fields)));
        output_char oc '\n')
  in
  let strings l = Metrics.Arr (List.map (fun x -> Metrics.Str x) l) in
  let print_host calib1 =
    Printf.printf
      "host: domains=%d ocaml=%s flambda=%b calib_ms start=%.3f end=%.3f\n"
      (Host.domains ()) Host.ocaml_version Host.flambda calib0 calib1
  in
  let print_notes (r : Run.result) =
    List.iter (fun (k, v) -> Printf.printf "  %s: %s\n" k v) r.Run.notes;
    List.iter (fun (k, v) -> Printf.printf "  %s: %.0f\n" k v) r.Run.gc;
    List.iter (fun p -> Printf.printf "  FAILED: %s\n" p) r.Run.problems
  in
  if !trace = 0 then begin
    let r = untraced (float_of_int !seconds) in
    let calib1 = Host.calib_ms () in
    let e = end_to_end ~planned:(planned (float_of_int !seconds)) r in
    let correct =
      r.Run.failed = 0
      && List.for_all (fun (_, v) -> Float.is_finite v && v > 0.0) e.values
    in
    print_endline header;
    print_host calib1;
    print_rows e.rows;
    print_notes r;
    write_record calib1
      [ ("metrics", Metrics.Arr (List.map row_json e.rows));
        ("gc", Metrics.Obj (List.map (fun (k, v) -> (k, Metrics.Num v)) r.Run.gc));
        ("notes", Metrics.Obj (List.map (fun (k, v) -> (k, Metrics.Str v)) r.Run.notes));
        ("problems", strings r.Run.problems) ];
    print_endline
      (Metrics.result_line ~correct ~attempted:r.Run.attempted
         ~failed:r.Run.failed e.values);
    exit (if correct then 0 else 1)
  end
  else begin
    (* Half the work untraced, then the units it completed again
       traced: the two passes do identical work, so their wall times
       give the tracing overhead. *)
    let base = untraced (float_of_int !seconds /. 2.0) in
    let tracer = Tracer.create () in
    let t =
      w.run
        { Run.seed = !seed; units = base.Run.units; deadline_s = infinity;
          setups = 1; traced = true; tracer }
    in
    let calib1 = Host.calib_ms () in
    let layer_spans =
      List.filter
        (fun n -> not (String.starts_with ~prefix:"client." n))
        (Tracer.names tracer)
    in
    let unlisted =
      List.filter
        (fun n -> not (List.exists (fun s -> s.Metrics.name = n ^ "_s") Metrics.per_layer))
        layer_spans
    in
    let window = Tracer.window_s tracer in
    let layer_sum =
      List.fold_left (fun acc n -> acc +. Tracer.self_s tracer n) 0.0 layer_spans
    in
    (* The mirror sessions are work the untraced pass does not do. *)
    let overhead =
      100.0 *. (((t.Run.wall_s -. t.Run.mirror_s) /. base.Run.wall_s) -. 1.0)
    in
    let value name =
      match List.assoc_opt name t.Run.layers with
      | Some v -> v
      | None -> (
        match List.assoc_opt name base.Run.gc with
        | Some v -> v
        | None -> (
          match name with
          | "residual_s" -> window -. layer_sum
          | "trace.window_s" -> window
          | "trace.spans" -> float_of_int (Tracer.spans tracer)
          | "trace.overhead_pct" -> overhead
          | "host.calib_ms" -> (calib0 +. calib1) /. 2.0
          | _ when String.ends_with ~suffix:"_s" name ->
            Tracer.self_s tracer (String.sub name 0 (String.length name - 2))
          | _ -> 0.0))
    in
    let values = List.map (fun s -> (s, value s.Metrics.name)) Metrics.per_layer in
    let failed = base.Run.failed + t.Run.failed + List.length unlisted in
    let correct =
      failed = 0 && List.for_all (fun (_, v) -> Float.is_finite v) values
    in
    let e = end_to_end ~planned:(planned (float_of_int !seconds /. 2.0)) base in
    print_endline header;
    print_host calib1;
    Printf.printf "untraced pass (%d units):\n" base.Run.units;
    print_rows e.rows;
    print_notes base;
    Printf.printf "traced pass (same %d units): wall %.3f s, of which %.3f s \
                   mirror sessions; tracing overhead %.2f%%\n"
      t.Run.units t.Run.wall_s t.Run.mirror_s overhead;
    print_notes t;
    Printf.printf "%-40s %12s %10s %8s\n" "layer (self time)" "seconds" "calls" "share";
    List.iter
      (fun n ->
        let s = Tracer.self_s tracer n in
        Printf.printf "%-40s %12.6f %10d %7.2f%%\n" n s (Tracer.calls tracer n)
          (100.0 *. s /. window))
      layer_spans;
    Printf.printf "%-40s %12.6f %10s %7.2f%%\n" "residual (client code, untraced gaps)"
      (window -. layer_sum) "" (100.0 *. (window -. layer_sum) /. window);
    Printf.printf "%-40s %12.6f %10d  (%d kept in %s)\n" "traced window" window
      (Tracer.spans tracer) (Tracer.stored tracer) out_dir;
    List.iter (fun n -> Printf.printf "  FAILED: span %s has no per-layer metric\n" n) unlisted;
    write_file (Filename.concat out_dir (stem ^ ".spans.tsv")) (Tracer.write tracer);
    write_record calib1
      [ ("untraced_metrics", Metrics.Arr (List.map row_json e.rows));
        ("per_layer",
         Metrics.Obj (List.map (fun (s, v) -> (s.Metrics.name, Metrics.Num v)) values));
        ("problems", strings (base.Run.problems @ t.Run.problems)) ];
    print_endline
      (Metrics.result_line ~correct ~attempted:(base.Run.attempted + t.Run.attempted)
         ~failed values);
    exit (if correct then 0 else 1)
  end
