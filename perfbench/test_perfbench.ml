(* Tests for the benchmark's own helpers: percentile selection, span
   self times, the backpressure mirror, and the emitted metric names. *)

open Perfbench

let label n = snd (Pct.tail ~n)

let tail_selection () =
  (* The highest percentile with at least ten samples strictly above
     its nearest-rank position. *)
  List.iter
    (fun (n, want) -> Alcotest.(check string) (Printf.sprintf "n = %d" n) want (label n))
    [ (5, "p50"); (39, "p50"); (40, "p75"); (99, "p75"); (100, "p90");
      (999, "p90"); (1_000, "p99"); (9_999, "p99"); (10_000, "p99.9");
      (100_000, "p99.99"); (999_999, "p99.99"); (1_000_000, "p99.999") ];
  List.iter
    (fun n ->
      let ppm, _ = Pct.tail ~n in
      if n >= 20 && Pct.beyond ~ppm n < 10 then
        Alcotest.failf "n = %d: only %d samples beyond" n (Pct.beyond ~ppm n))
    [ 20; 57; 101; 4_321; 123_456 ];
  Alcotest.(check int) "p99 of 1000 leaves exactly ten" 10 (Pct.beyond ~ppm:99_000 1_000)

let percentile_values () =
  let s = Pct.create 100 in
  for i = 100 downto 1 do Pct.add s (float_of_int i) done;
  Pct.add s 1e9;
  Alcotest.(check bool) "full" true (Pct.full s);
  Alcotest.(check int) "the sample past capacity is dropped" 100 (Pct.count s);
  let sorted = Pct.sorted s in
  List.iter
    (fun (ppm, want) ->
      Alcotest.(check (float 0.0)) (string_of_int ppm) want (Pct.at sorted ~ppm))
    [ (50_000, 50.0); (75_000, 75.0); (90_000, 90.0); (99_000, 99.0);
      (99_999, 100.0) ]

(* A clock the test advances by hand. *)
let fake_clock () =
  let t = ref 0.0 in
  ((fun () -> !t), fun x -> t := x)

let nested_self_time () =
  let clock, set = fake_clock () in
  let tr = Tracer.create ~clock ~capacity:16 () in
  let a = Tracer.name tr "a" and b = Tracer.name tr "b" in
  let c = Tracer.name tr "c" and d = Tracer.name tr "d" in
  Tracer.start tr;
  (* a [0, 10] holds b [2, 5] and c [6, 8]; c holds d [6.5, 7]. *)
  Tracer.enter tr a ~op:1;
  set 2.0; Tracer.enter tr b ~op:1;
  set 5.0; Tracer.leave tr;
  set 6.0; Tracer.enter tr c ~op:1;
  set 6.5; Tracer.enter tr d ~op:1;
  set 7.0; Tracer.leave tr;
  set 8.0; Tracer.leave tr;
  set 10.0; Tracer.leave tr;
  Tracer.stop tr;
  List.iter
    (fun (n, want) -> Alcotest.(check (float 1e-12)) n want (Tracer.self_s tr n))
    [ ("a", 5.0); ("b", 3.0); ("c", 1.5); ("d", 0.5) ];
  Alcotest.(check (float 1e-12)) "window" 10.0 (Tracer.window_s tr);
  Alcotest.(check int) "spans" 4 (Tracer.spans tr);
  let self_sum =
    List.fold_left (fun acc n -> acc +. Tracer.self_s tr n) 0.0 (Tracer.names tr)
  in
  Alcotest.(check (float 1e-12)) "self times tile the root span" 10.0 self_sum

let pause_and_rename () =
  let clock, set = fake_clock () in
  let tr = Tracer.create ~clock () in
  let a = Tracer.name tr "a" and hit = Tracer.name tr "hit" in
  let miss = Tracer.name tr "miss" in
  Tracer.start tr;
  Tracer.enter tr a ~op:0;
  set 1.0; Tracer.stop tr;
  (* Neither the window nor the open span sees the pause. *)
  set 4.0; Tracer.start tr;
  set 4.5; Tracer.enter tr hit ~op:0;
  set 6.5; Tracer.leave_as tr miss;
  set 7.0; Tracer.leave tr;
  Tracer.stop tr;
  Alcotest.(check (float 1e-12)) "window" 4.0 (Tracer.window_s tr);
  Alcotest.(check (float 1e-12)) "a" 2.0 (Tracer.self_s tr "a");
  Alcotest.(check (float 1e-12)) "renamed" 2.0 (Tracer.self_s tr "miss");
  Alcotest.(check int) "nothing left under the provisional name" 0
    (Tracer.calls tr "hit");
  ignore hit;
  (* Stopped tracers ignore hooks. *)
  Tracer.enter tr a ~op:0;
  Tracer.leave tr;
  Alcotest.(check int) "no span while stopped" 2 (Tracer.spans tr)

let open_frame id =
  Serve.Frame.encode_request
    (Serve.Frame.Open { session = Int64.of_int id; seed = id; start = [| 0.0; 0.0 |] })

(* A capacity-2 daemon processes pending frames only when it flushes,
   and [live_sessions] counts processed opens, so every flush shows. *)
let mirror_matches_daemon () =
  let config = Mobile_server.Config.make () in
  let daemon =
    Serve.Daemon.create ~shards:2 ~jobs:1 ~queue_capacity:2 ~journal:false
      ~config ()
  in
  let mirror = Flush_mirror.create ~shards:2 ~capacity:2 in
  let observed = ref 0 in
  for id = 0 to 40 do
    let before = Serve.Daemon.live_sessions daemon in
    let predicted =
      Flush_mirror.submit mirror
        (Serve.Daemon.shard_of_session daemon (Int64.of_int id))
    in
    ignore (Serve.Daemon.submit daemon (open_frame id));
    let flushed = Serve.Daemon.live_sessions daemon > before in
    if flushed then incr observed;
    if predicted <> flushed then
      Alcotest.failf "submit %d: mirror says flush=%b, daemon flush=%b" id
        predicted flushed
  done;
  Alcotest.(check bool) "backpressure happened" true (!observed > 0);
  Alcotest.(check int) "flush count" !observed (Flush_mirror.backpressure_flushes mirror);
  Flush_mirror.flush mirror;
  Serve.Daemon.flush daemon;
  Serve.Daemon.shutdown daemon

let known_flush_count () =
  (* Seven sessions on one shard of a capacity-2 daemon: the 3rd, 5th
     and 7th submits find the queue full. *)
  let config = Mobile_server.Config.make () in
  let daemon =
    Serve.Daemon.create ~shards:2 ~jobs:1 ~queue_capacity:2 ~journal:false
      ~config ()
  in
  let mirror = Flush_mirror.create ~shards:2 ~capacity:2 in
  let ids =
    List.filteri (fun i _ -> i < 7)
      (List.filter
         (fun id -> Serve.Daemon.shard_of_session daemon (Int64.of_int id) = 0)
         (List.init 64 Fun.id))
  in
  List.iter
    (fun id ->
      ignore (Flush_mirror.submit mirror 0);
      ignore (Serve.Daemon.submit daemon (open_frame id)))
    ids;
  Alcotest.(check int) "mirror" 3 (Flush_mirror.backpressure_flushes mirror);
  Alcotest.(check int) "opens processed by the three flushes" 6
    (Serve.Daemon.live_sessions daemon);
  Serve.Daemon.shutdown daemon

let all_specs = Metrics.end_to_end @ Metrics.per_layer

let names_valid () =
  List.iter
    (fun s ->
      if not (Metrics.valid_name s.Metrics.name) then
        Alcotest.failf "bad metric name %S" s.Metrics.name)
    all_specs;
  let names = List.map (fun s -> s.Metrics.name) all_specs in
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq String.compare names));
  List.iter
    (fun n -> Alcotest.(check bool) n false (Metrics.valid_name n))
    [ ""; "_x"; "a b"; "a/b"; "a\"b"; String.make 65 'a' ];
  List.iter
    (fun n -> Alcotest.(check bool) n true (Metrics.valid_name n))
    [ "throughput"; "serve.daemon.flush_s"; "9a-b_c.d" ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let count_sub s sub =
  let n = String.length sub in
  let rec go i acc =
    if i + n > String.length s then acc
    else if String.sub s i n = sub then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let benchmark_json_lists_them () =
  let json = read_file "../BENCHMARK.json" in
  List.iter
    (fun s ->
      let entry =
        Printf.sprintf "{\"name\": \"%s\", \"unit\": \"%s\"" s.Metrics.name
          s.Metrics.unit
      in
      if count_sub json entry <> 1 then
        Alcotest.failf "BENCHMARK.json lacks %s" entry)
    all_specs;
  Alcotest.(check int) "no other metrics"
    (List.length all_specs)
    (count_sub json "\"unit\":")

let result_line () =
  let line =
    Metrics.result_line ~correct:true ~attempted:3 ~failed:0
      [ (List.hd Metrics.end_to_end, 1.5) ]
  in
  Alcotest.(check string) "shape"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
     {\"throughput\": {\"value\": 1.5, \"unit\": \"ops/s\"}}}"
    line;
  Alcotest.(check string) "non-finite is null" "[null, 0.10000000000000001]"
    (Metrics.to_string (Metrics.Arr [ Metrics.Num nan; Metrics.Num 0.1 ]))

let () =
  Alcotest.run "perfbench"
    [ ("percentiles",
       [ Alcotest.test_case "tail selection" `Quick tail_selection;
         Alcotest.test_case "values" `Quick percentile_values ]);
      ("tracer",
       [ Alcotest.test_case "nested self time" `Quick nested_self_time;
         Alcotest.test_case "pause and rename" `Quick pause_and_rename ]);
      ("flush mirror",
       [ Alcotest.test_case "matches a capacity-2 daemon" `Quick mirror_matches_daemon;
         Alcotest.test_case "known flush count" `Quick known_flush_count ]);
      ("names",
       [ Alcotest.test_case "valid and unique" `Quick names_valid;
         Alcotest.test_case "BENCHMARK.json lists them" `Quick benchmark_json_lists_them;
         Alcotest.test_case "result line" `Quick result_line ]) ]
