(* Tests for the prng library: determinism, stream independence,
   distribution sanity. *)

let check_float = Alcotest.(check (float 1e-9))

(* --- Splitmix ------------------------------------------------------ *)

let splitmix_deterministic () =
  let a = Prng.Splitmix.create 1234L in
  let b = Prng.Splitmix.create 1234L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.Splitmix.next a)
      (Prng.Splitmix.next b)
  done

let splitmix_seed_sensitivity () =
  let a = Prng.Splitmix.create 1L and b = Prng.Splitmix.create 2L in
  Alcotest.(check bool) "different streams" false
    (Prng.Splitmix.next a = Prng.Splitmix.next b)

let splitmix_copy () =
  let a = Prng.Splitmix.create 7L in
  ignore (Prng.Splitmix.next a);
  let b = Prng.Splitmix.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.Splitmix.next a)
    (Prng.Splitmix.next b)

let splitmix_float_range () =
  let g = Prng.Splitmix.create 99L in
  for _ = 1 to 10_000 do
    let x = Prng.Splitmix.next_float g in
    if x < 0.0 || x >= 1.0 then Alcotest.failf "out of [0,1): %g" x
  done

let splitmix_below_range () =
  let g = Prng.Splitmix.create 5L in
  for _ = 1 to 10_000 do
    let k = Prng.Splitmix.next_below g 7 in
    if k < 0 || k >= 7 then Alcotest.failf "out of [0,7): %d" k
  done

let splitmix_below_invalid () =
  let g = Prng.Splitmix.create 5L in
  Alcotest.check_raises "n = 0" (Invalid_argument
    "Splitmix.next_below: n must be positive")
    (fun () -> ignore (Prng.Splitmix.next_below g 0))

let splitmix_split_independent () =
  let g = Prng.Splitmix.create 11L in
  let h = Prng.Splitmix.split g in
  Alcotest.(check bool) "distinct outputs" false
    (Prng.Splitmix.next g = Prng.Splitmix.next h)

(* --- Xoshiro ------------------------------------------------------- *)

let xoshiro_deterministic () =
  let a = Prng.Xoshiro.create 42L and b = Prng.Xoshiro.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.Xoshiro.next a)
      (Prng.Xoshiro.next b)
  done

let xoshiro_copy () =
  let a = Prng.Xoshiro.create 42L in
  ignore (Prng.Xoshiro.next a);
  let b = Prng.Xoshiro.copy a in
  for _ = 1 to 10 do
    Alcotest.(check int64) "copy tracks" (Prng.Xoshiro.next a)
      (Prng.Xoshiro.next b)
  done

let xoshiro_zero_state_rejected () =
  Alcotest.check_raises "all-zero state"
    (Invalid_argument "Xoshiro.of_state: all-zero state") (fun () ->
      ignore (Prng.Xoshiro.of_state 0L 0L 0L 0L))

let xoshiro_jump_changes_stream () =
  let a = Prng.Xoshiro.create 42L in
  let b = Prng.Xoshiro.copy a in
  Prng.Xoshiro.jump b;
  Alcotest.(check bool) "jumped stream differs" false
    (Prng.Xoshiro.next a = Prng.Xoshiro.next b)

(* Known answers: every stream the generator exposes, one value per
   line, against golden/xoshiro_kat.txt.  The file was captured from
   the record-of-four-int64 state representation, so a change of state
   layout that perturbs one bit of one stream fails here.  The first
   of_state(1,2,3,4) output, 0x2d00 = rotl(2·5, 7)·9, matches the
   reference C implementation. *)
let kat_render () =
  let module X = Prng.Xoshiro in
  let buf = Buffer.create 32768 in
  let line label i v =
    Buffer.add_string buf (Printf.sprintf "%s %d %016Lx\n" label i v)
  in
  let draws label g k =
    for i = 0 to k - 1 do
      line label i (X.next g)
    done
  in
  draws "of_state(1,2,3,4)" (X.of_state 1L 2L 3L 4L) 64;
  List.iter
    (fun seed -> draws (Printf.sprintf "create(%Ld)" seed) (X.create seed) 64)
    [ 0L; 42L; -1L ];
  let g = X.of_state 1L 2L 3L 4L in
  X.jump g;
  draws "jump(of_state)" g 16;
  let g = X.create 42L in
  draws "pre-jump(create 42)" g 3;
  X.jump g;
  X.jump g;
  draws "jump2(create 42)" g 16;
  let a = X.create 7L in
  draws "copy-pre" a 5;
  let b = X.copy a in
  draws "copy-original" a 16;
  draws "copy-copy" b 16;
  let g = X.create 11L in
  List.iter
    (fun n ->
      for i = 0 to 15 do
        line (Printf.sprintf "below(%d)" n) i (Int64.of_int (X.next_below g n))
      done)
    [ 1; 2; 3; 7; 1000; 1 lsl 40; max_int ];
  let g = X.create 13L in
  for i = 0 to 63 do
    line "float" i (Int64.bits_of_float (X.next_float g))
  done;
  Buffer.contents buf

let kat_file =
  if Sys.file_exists "golden/xoshiro_kat.txt" then "golden/xoshiro_kat.txt"
  else "test/golden/xoshiro_kat.txt"

let xoshiro_known_answers () =
  let expected =
    let ic = open_in_bin kat_file in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let split s = String.split_on_char '\n' s in
  let exp_lines = split expected and got_lines = split (kat_render ()) in
  Alcotest.(check int) "line count" (List.length exp_lines)
    (List.length got_lines);
  List.iter2
    (fun e g ->
      if not (String.equal e g) then Alcotest.failf "expected %S, got %S" e g)
    exp_lines got_lines;
  (* The copy continues exactly where its original does. *)
  let tail prefix =
    List.filter_map
      (fun l ->
        match String.index_opt l ' ' with
        | Some i when String.sub l 0 i = prefix ->
          Some (String.sub l i (String.length l - i))
        | _ -> None)
      got_lines
  in
  Alcotest.(check (list string)) "copy continuity" (tail "copy-original")
    (tail "copy-copy")

let xoshiro_mean () =
  (* The mean of many uniforms should be near 1/2. *)
  let g = Prng.Xoshiro.create 7L in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Prng.Xoshiro.next_float g
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. 0.5) > 0.01 then
    Alcotest.failf "uniform mean suspicious: %g" mean

(* --- Dist ---------------------------------------------------------- *)

let rng () = Prng.Xoshiro.create 2024L

let dist_uniform_bounds () =
  let g = rng () in
  for _ = 1 to 10_000 do
    let x = Prng.Dist.uniform g ~lo:(-3.0) ~hi:5.0 in
    if x < -3.0 || x >= 5.0 then Alcotest.failf "uniform out of range: %g" x
  done

let dist_uniform_invalid () =
  Alcotest.check_raises "lo > hi" (Invalid_argument "Dist.uniform: lo > hi")
    (fun () -> ignore (Prng.Dist.uniform (rng ()) ~lo:1.0 ~hi:0.0))

let dist_gaussian_moments () =
  let g = rng () in
  let n = 200_000 in
  let acc = Stats.Running.create () in
  for _ = 1 to n do
    Stats.Running.add acc (Prng.Dist.gaussian g ~mu:2.0 ~sigma:3.0)
  done;
  if Float.abs (Stats.Running.mean acc -. 2.0) > 0.05 then
    Alcotest.failf "gaussian mean off: %g" (Stats.Running.mean acc);
  if Float.abs (Stats.Running.stddev acc -. 3.0) > 0.05 then
    Alcotest.failf "gaussian stddev off: %g" (Stats.Running.stddev acc)

let dist_exponential_mean () =
  let g = rng () in
  let n = 200_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let x = Prng.Dist.exponential g ~rate:2.0 in
    if x < 0.0 then Alcotest.fail "negative exponential";
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  if Float.abs (mean -. 0.5) > 0.01 then
    Alcotest.failf "exponential mean off: %g" mean

let dist_bernoulli_frequency () =
  let g = rng () in
  let n = 100_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Prng.Dist.bernoulli g ~p:0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  if Float.abs (freq -. 0.3) > 0.01 then
    Alcotest.failf "bernoulli frequency off: %g" freq

let dist_fair_coin () =
  let g = rng () in
  let n = 100_000 in
  let heads = ref 0 in
  for _ = 1 to n do
    if Prng.Dist.fair_coin g then incr heads
  done;
  let freq = float_of_int !heads /. float_of_int n in
  if Float.abs (freq -. 0.5) > 0.01 then
    Alcotest.failf "coin frequency off: %g" freq

let dist_poisson_mean () =
  let g = rng () in
  let n = 100_000 in
  let sum = ref 0 in
  for _ = 1 to n do
    sum := !sum + Prng.Dist.poisson g ~lambda:2.5
  done;
  let mean = float_of_int !sum /. float_of_int n in
  if Float.abs (mean -. 2.5) > 0.05 then
    Alcotest.failf "poisson mean off: %g" mean

(* Knuth's method as Dist.poisson ran it for every lambda before large
   means were split. *)
let knuth_poisson g ~lambda =
  let limit = exp (-.lambda) in
  let rec loop k prod =
    let prod = prod *. Prng.Xoshiro.next_float g in
    if prod <= limit then k else loop (k + 1) prod
  in
  loop 0 1.0

let dist_poisson_small_lambda_unchanged () =
  List.iter
    (fun lambda ->
      let g = rng () and reference = rng () in
      for i = 1 to 500 do
        let a = Prng.Dist.poisson g ~lambda
        and b = knuth_poisson reference ~lambda in
        if a <> b then
          Alcotest.failf "lambda %g, draw %d: %d, Knuth's loop %d" lambda i a b
      done)
    [ 2.5; 625.0 ]

let dist_poisson_large_mean () =
  (* Knuth's loop alone saturates near 745 at these means. *)
  List.iter
    (fun lambda ->
      let g = rng () in
      let n = 2000 in
      let sum = ref 0 in
      for _ = 1 to n do
        sum := !sum + Prng.Dist.poisson g ~lambda
      done;
      let mean = float_of_int !sum /. float_of_int n in
      let std_err = sqrt (lambda /. float_of_int n) in
      if Float.abs (mean -. lambda) > 4.0 *. std_err then
        Alcotest.failf "lambda %g: mean %g is more than 4 standard errors \
                        (%g) off" lambda mean std_err)
    [ 1250.0; 6250.0 ]

let dist_poisson_invalid () =
  List.iter
    (fun lambda ->
      match Prng.Dist.poisson (rng ()) ~lambda with
      | _ -> Alcotest.failf "lambda %g accepted" lambda
      | exception Invalid_argument _ -> ())
    [ -1.0; Float.infinity; Float.nan ]

let dist_zipf_support () =
  let g = rng () in
  for _ = 1 to 10_000 do
    let k = Prng.Dist.zipf g ~n:10 ~s:1.2 in
    if k < 1 || k > 10 then Alcotest.failf "zipf out of support: %d" k
  done

let dist_zipf_rank1_most_frequent () =
  let g = rng () in
  let counts = Array.make 11 0 in
  for _ = 1 to 50_000 do
    let k = Prng.Dist.zipf g ~n:10 ~s:1.2 in
    counts.(k) <- counts.(k) + 1
  done;
  for k = 2 to 10 do
    if counts.(k) > counts.(1) then
      Alcotest.failf "rank %d more frequent than rank 1" k
  done

let dist_direction_unit () =
  let g = rng () in
  for _ = 1 to 1000 do
    let v = Prng.Dist.direction g ~dim:3 in
    check_float "unit norm" 1.0 (Geometry.Vec.norm v)
  done

let dist_in_ball_containment () =
  let g = rng () in
  let center = [| 1.0; -2.0 |] in
  for _ = 1 to 5000 do
    let p = Prng.Dist.in_ball g ~center ~radius:4.0 in
    if Geometry.Vec.dist p center > 4.0 +. 1e-9 then
      Alcotest.fail "point outside ball"
  done

let dist_shuffle_permutes () =
  let g = rng () in
  let a = Array.init 100 (fun i -> i) in
  Prng.Dist.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset"
    (Array.init 100 (fun i -> i))
    sorted

(* --- Stream -------------------------------------------------------- *)

let stream_named_reproducible () =
  let a = Prng.Stream.named ~name:"exp" ~seed:1 in
  let b = Prng.Stream.named ~name:"exp" ~seed:1 in
  Alcotest.(check int64) "same" (Prng.Xoshiro.next a) (Prng.Xoshiro.next b)

let stream_named_distinct () =
  let a = Prng.Stream.named ~name:"exp-a" ~seed:1 in
  let b = Prng.Stream.named ~name:"exp-b" ~seed:1 in
  Alcotest.(check bool) "distinct names differ" false
    (Prng.Xoshiro.next a = Prng.Xoshiro.next b)

let stream_replicates_independent () =
  let base = Prng.Stream.named ~name:"exp" ~seed:1 in
  let r0 = Prng.Stream.replicate base 0 in
  let r1 = Prng.Stream.replicate base 1 in
  Alcotest.(check bool) "replicates differ" false
    (Prng.Xoshiro.next r0 = Prng.Xoshiro.next r1)

let stream_replicate_pure () =
  let base = Prng.Stream.named ~name:"exp" ~seed:1 in
  let before = Prng.Xoshiro.next (Prng.Xoshiro.copy base) in
  ignore (Prng.Stream.replicate base 3);
  let after = Prng.Xoshiro.next (Prng.Xoshiro.copy base) in
  Alcotest.(check int64) "base not advanced" before after

(* --- QCheck properties -------------------------------------------- *)

let qcheck_next_below_uniform =
  QCheck.Test.make ~count:50 ~name:"next_below stays in range"
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let g = Prng.Xoshiro.create (Int64.of_int seed) in
      let ok = ref true in
      for _ = 1 to 100 do
        let k = Prng.Xoshiro.next_below g n in
        if k < 0 || k >= n then ok := false
      done;
      !ok)

let qcheck_float_in_unit =
  QCheck.Test.make ~count:50 ~name:"next_float in [0,1)"
    QCheck.small_int
    (fun seed ->
      let g = Prng.Xoshiro.create (Int64.of_int seed) in
      let ok = ref true in
      for _ = 1 to 100 do
        let x = Prng.Xoshiro.next_float g in
        if x < 0.0 || x >= 1.0 then ok := false
      done;
      !ok)

let () =
  Alcotest.run "prng"
    [
      ( "splitmix",
        [
          Alcotest.test_case "deterministic" `Quick splitmix_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick splitmix_seed_sensitivity;
          Alcotest.test_case "copy" `Quick splitmix_copy;
          Alcotest.test_case "float range" `Quick splitmix_float_range;
          Alcotest.test_case "below range" `Quick splitmix_below_range;
          Alcotest.test_case "below invalid" `Quick splitmix_below_invalid;
          Alcotest.test_case "split independent" `Quick splitmix_split_independent;
        ] );
      ( "xoshiro",
        [
          Alcotest.test_case "deterministic" `Quick xoshiro_deterministic;
          Alcotest.test_case "copy" `Quick xoshiro_copy;
          Alcotest.test_case "zero state rejected" `Quick xoshiro_zero_state_rejected;
          Alcotest.test_case "jump changes stream" `Quick xoshiro_jump_changes_stream;
          Alcotest.test_case "known answers" `Quick xoshiro_known_answers;
          Alcotest.test_case "uniform mean" `Slow xoshiro_mean;
        ] );
      ( "dist",
        [
          Alcotest.test_case "uniform bounds" `Quick dist_uniform_bounds;
          Alcotest.test_case "uniform invalid" `Quick dist_uniform_invalid;
          Alcotest.test_case "gaussian moments" `Slow dist_gaussian_moments;
          Alcotest.test_case "exponential mean" `Slow dist_exponential_mean;
          Alcotest.test_case "bernoulli frequency" `Slow dist_bernoulli_frequency;
          Alcotest.test_case "fair coin" `Slow dist_fair_coin;
          Alcotest.test_case "poisson mean" `Slow dist_poisson_mean;
          Alcotest.test_case "poisson small lambda unchanged" `Quick
            dist_poisson_small_lambda_unchanged;
          Alcotest.test_case "poisson large mean" `Quick dist_poisson_large_mean;
          Alcotest.test_case "poisson invalid" `Quick dist_poisson_invalid;
          Alcotest.test_case "zipf support" `Quick dist_zipf_support;
          Alcotest.test_case "zipf rank order" `Slow dist_zipf_rank1_most_frequent;
          Alcotest.test_case "direction unit" `Quick dist_direction_unit;
          Alcotest.test_case "in_ball containment" `Quick dist_in_ball_containment;
          Alcotest.test_case "shuffle permutes" `Quick dist_shuffle_permutes;
        ] );
      ( "stream",
        [
          Alcotest.test_case "named reproducible" `Quick stream_named_reproducible;
          Alcotest.test_case "named distinct" `Quick stream_named_distinct;
          Alcotest.test_case "replicates independent" `Quick
            stream_replicates_independent;
          Alcotest.test_case "replicate is pure" `Quick stream_replicate_pure;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_next_below_uniform; qcheck_float_in_unit ] );
    ]
