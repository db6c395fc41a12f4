(* Tests for the deterministic parallel execution pool.

   The load-bearing property is the determinism contract: [Exec.map]
   and friends must return results bit-identical to a sequential
   [Array.map] at every jobs count, because the experiment harness
   relies on parallel sweeps reproducing the sequential tables. *)

let check_float = Alcotest.(check (float 0.0))

(* A seeded "experiment cell": burn a per-cell PRNG stream for a few
   steps and fold the draws — sensitive to both the seed and the order
   of operations, so any cross-task state sharing shows up as a
   mismatch. *)
let cell_work parent i =
  let seed = Exec.derive_seed ~parent i in
  let rng = Prng.Xoshiro.create (Int64.of_int seed) in
  let acc = ref 0.0 in
  for _ = 1 to 100 do
    acc := !acc +. Prng.Dist.uniform rng ~lo:(-1.0) ~hi:1.0
  done;
  !acc

let map_matches_sequential () =
  let parent = 42 in
  let cells = Array.init 64 (fun i -> i) in
  let expected = Array.map (cell_work parent) cells in
  List.iter
    (fun jobs ->
      let got = Exec.map ~jobs (cell_work parent) cells in
      Array.iteri
        (fun i x ->
          check_float (Printf.sprintf "jobs=%d cell %d" jobs i) expected.(i) x)
        got)
    [ 1; 2; 4 ]

let mapi_matches_sequential () =
  let xs = Array.init 33 (fun i -> float_of_int i) in
  let f i x = (x *. 3.0) +. float_of_int i in
  let expected = Array.mapi f xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (array (float 0.0)))
        (Printf.sprintf "jobs=%d" jobs) expected (Exec.mapi ~jobs f xs))
    [ 1; 2; 4 ]

let map_list_preserves_order () =
  let xs = List.init 20 (fun i -> i) in
  Alcotest.(check (list int))
    "order" (List.map succ xs)
    (Exec.map_list ~jobs:3 succ xs)

let map_empty_and_singleton () =
  Alcotest.(check (array int)) "empty" [||] (Exec.map ~jobs:4 succ [||]);
  Alcotest.(check (array int)) "singleton" [| 8 |] (Exec.map ~jobs:4 succ [| 7 |])

let map_rejects_bad_jobs () =
  Alcotest.check_raises "jobs 0" (Invalid_argument "Exec.map: jobs < 1")
    (fun () -> ignore (Exec.map ~jobs:0 succ [| 1 |]))

let map_propagates_exception () =
  match
    Exec.map ~jobs:2
      (fun i -> if i = 13 then failwith "boom in cell 13" else i)
      (Array.init 40 (fun i -> i))
  with
  | _ -> Alcotest.fail "expected the cell failure to re-raise"
  | exception Failure msg -> Alcotest.(check string) "message" "boom in cell 13" msg

let derive_seed_properties () =
  Alcotest.(check int) "deterministic"
    (Exec.derive_seed ~parent:42 17)
    (Exec.derive_seed ~parent:42 17);
  Alcotest.(check bool) "distinct cells" true
    (Exec.derive_seed ~parent:42 0 <> Exec.derive_seed ~parent:42 1);
  Alcotest.(check bool) "distinct parents" true
    (Exec.derive_seed ~parent:1 0 <> Exec.derive_seed ~parent:2 0);
  Alcotest.(check bool) "non-negative" true (Exec.derive_seed ~parent:(-5) 3 >= 0);
  Alcotest.check_raises "negative cell"
    (Invalid_argument "Exec.derive_seed: negative index") (fun () ->
      ignore (Exec.derive_seed ~parent:1 (-1)))

let set_jobs_validates () =
  Alcotest.check_raises "jobs 0" (Invalid_argument "Exec.set_jobs: jobs < 1")
    (fun () -> Exec.set_jobs 0);
  let before = Exec.jobs () in
  Exec.set_jobs 3;
  Alcotest.(check int) "takes effect" 3 (Exec.jobs ());
  Exec.set_jobs before

let pool_runs_all_tasks () =
  let pool = Exec.Pool.create ~jobs:2 in
  Fun.protect
    ~finally:(fun () -> Exec.Pool.shutdown pool)
    (fun () ->
      Alcotest.(check int) "size" 2 (Exec.Pool.size pool);
      let hits = Array.make 100 0 in
      Exec.Pool.run pool ~tasks:100 (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check (array int)) "each task exactly once"
        (Array.make 100 1) hits;
      (* A pool survives multiple run batches. *)
      let n = Atomic.make 0 in
      Exec.Pool.run pool ~tasks:10 (fun _ -> Atomic.incr n);
      Alcotest.(check int) "second batch" 10 (Atomic.get n))

let pool_nested_run () =
  (* An outer task fanning out on the same pool must not deadlock: the
     bounded queue falls back to caller-runs and waiters help drain. *)
  let pool = Exec.Pool.create ~jobs:2 in
  Fun.protect
    ~finally:(fun () -> Exec.Pool.shutdown pool)
    (fun () ->
      let n = Atomic.make 0 in
      Exec.Pool.run pool ~tasks:4 (fun _ ->
          Exec.Pool.run pool ~tasks:8 (fun _ -> Atomic.incr n));
      Alcotest.(check int) "all inner tasks ran" 32 (Atomic.get n))

let pool_shutdown_caller_runs () =
  (* Submitting after (or during) teardown degrades to the calling
     domain — every task still runs exactly once, nothing raises,
     nothing deadlocks (regression for the shutdown-vs-submit race the
     simtest Concurrent_step op exercises). *)
  let pool = Exec.Pool.create ~jobs:1 in
  Exec.Pool.run pool ~tasks:3 (fun _ -> ());
  Exec.Pool.shutdown pool;
  Exec.Pool.shutdown pool;
  let hits = Array.make 5 0 in
  Exec.Pool.run pool ~tasks:5 (fun i -> hits.(i) <- hits.(i) + 1);
  Alcotest.(check (array int)) "each task once, caller-side"
    (Array.make 5 1) hits

let pool_shutdown_races_run () =
  (* A shutdown fired from another domain mid-run: the run must
     complete all its tasks (queued ones are drained by the stopping
     workers; late submits run caller-side), and shutdown must return
     only once the workers are joined. *)
  for _ = 1 to 20 do
    let pool = Exec.Pool.create ~jobs:2 in
    let stopper = Domain.spawn (fun () -> Exec.Pool.shutdown pool) in
    let hits = Array.make 64 0 in
    Exec.Pool.run pool ~tasks:64 (fun i -> hits.(i) <- hits.(i) + 1);
    Domain.join stopper;
    Exec.Pool.shutdown pool;
    Alcotest.(check (array int)) "all tasks ran despite racing shutdown"
      (Array.make 64 1) hits
  done

let qcheck_map_is_array_map =
  QCheck.Test.make ~count:50 ~name:"Exec.map agrees with Array.map"
    QCheck.(triple (int_range 1 4) small_int
              (list_of_size (QCheck.Gen.int_range 0 40) small_int))
    (fun (jobs, parent, xs) ->
      let arr = Array.of_list xs in
      let f x = cell_work parent (x land 15) in
      Exec.map ~jobs f arr = Array.map f arr)

let () =
  Alcotest.run "exec"
    [
      ( "map",
        [
          Alcotest.test_case "matches sequential" `Quick map_matches_sequential;
          Alcotest.test_case "mapi" `Quick mapi_matches_sequential;
          Alcotest.test_case "map_list order" `Quick map_list_preserves_order;
          Alcotest.test_case "empty + singleton" `Quick map_empty_and_singleton;
          Alcotest.test_case "rejects bad jobs" `Quick map_rejects_bad_jobs;
          Alcotest.test_case "propagates exception" `Quick
            map_propagates_exception;
        ] );
      ( "seeds",
        [
          Alcotest.test_case "derive_seed" `Quick derive_seed_properties;
          Alcotest.test_case "set_jobs" `Quick set_jobs_validates;
        ] );
      ( "pool",
        [
          Alcotest.test_case "runs all tasks" `Quick pool_runs_all_tasks;
          Alcotest.test_case "nested run" `Quick pool_nested_run;
          Alcotest.test_case "shutdown caller-runs" `Quick
            pool_shutdown_caller_runs;
          Alcotest.test_case "shutdown races run" `Quick
            pool_shutdown_races_run;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ qcheck_map_is_array_map ] );
    ]
