(* Tests for the stats library. *)

let check_float = Alcotest.(check (float 1e-9))
let check_loose = Alcotest.(check (float 1e-6))

(* --- Running ------------------------------------------------------- *)

let running_empty () =
  let acc = Stats.Running.create () in
  Alcotest.(check int) "count" 0 (Stats.Running.count acc);
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.Running.mean acc));
  check_float "variance" 0.0 (Stats.Running.variance acc)

let running_matches_direct () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  let acc = Stats.Running.create () in
  Array.iter (Stats.Running.add acc) xs;
  check_float "mean" 5.0 (Stats.Running.mean acc);
  (* Unbiased variance of this classic sample is 32/7. *)
  check_loose "variance" (32.0 /. 7.0) (Stats.Running.variance acc);
  check_float "min" 2.0 (Stats.Running.min acc);
  check_float "max" 9.0 (Stats.Running.max acc);
  check_float "sum" 40.0 (Stats.Running.sum acc);
  Alcotest.(check int) "count" 8 (Stats.Running.count acc)

let running_rejects_nan () =
  let acc = Stats.Running.create () in
  Alcotest.check_raises "nan"
    (Invalid_argument "Running.add: non-finite observation") (fun () ->
      Stats.Running.add acc Float.nan)

let running_of_array () =
  let xs = Array.init 60 (fun i -> sin (float_of_int i)) in
  let all = Stats.Running.of_array xs in
  let folded = Stats.Running.create () in
  Array.iter (Stats.Running.add folded) xs;
  Alcotest.(check int) "count" 60 (Stats.Running.count all);
  check_float "mean" (Stats.Running.mean folded) (Stats.Running.mean all);
  check_float "variance" (Stats.Running.variance folded)
    (Stats.Running.variance all);
  check_float "min" (Stats.Running.min folded) (Stats.Running.min all);
  check_float "max" (Stats.Running.max folded) (Stats.Running.max all)

let running_std_error () =
  let acc = Stats.Running.create () in
  List.iter (Stats.Running.add acc) [ 1.0; 2.0; 3.0; 4.0 ];
  let expected = Stats.Running.stddev acc /. 2.0 in
  check_float "stderr" expected (Stats.Running.std_error acc)

(* --- Quantile ------------------------------------------------------ *)

let quantile_known () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "median interpolated" 2.5 (Stats.Quantile.median xs);
  check_float "min" 1.0 (Stats.Quantile.quantile xs 0.0);
  check_float "max" 4.0 (Stats.Quantile.quantile xs 1.0);
  check_float "q25" 1.75 (Stats.Quantile.quantile xs 0.25)

let quantile_unsorted_input () =
  check_float "unsorted" 3.0 (Stats.Quantile.median [| 5.0; 1.0; 3.0 |])

let quantile_preserves_input () =
  let xs = [| 3.0; 1.0; 2.0 |] in
  ignore (Stats.Quantile.median xs);
  Alcotest.(check (array (float 0.0))) "unmodified" [| 3.0; 1.0; 2.0 |] xs

let quantile_errors () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Quantile.quantile: empty sample") (fun () ->
      ignore (Stats.Quantile.quantile [||] 0.5));
  Alcotest.check_raises "bad q"
    (Invalid_argument "Quantile.quantile: q outside [0,1]") (fun () ->
      ignore (Stats.Quantile.quantile [| 1.0 |] 1.5))

let quantile_rejects_non_finite () =
  Alcotest.check_raises "nan"
    (Invalid_argument "Quantile.quantile: non-finite observation") (fun () ->
      ignore (Stats.Quantile.quantile [| 1.0; Float.nan; 2.0 |] 0.5));
  Alcotest.check_raises "infinity"
    (Invalid_argument "Quantile.quantile: non-finite observation") (fun () ->
      ignore (Stats.Quantile.median [| Float.infinity |]))

let histogram_rejects_non_finite () =
  Alcotest.check_raises "nan"
    (Invalid_argument "Quantile.histogram: non-finite observation") (fun () ->
      ignore (Stats.Quantile.histogram ~bins:2 [| 0.0; Float.nan; 1.0 |]));
  Alcotest.check_raises "neg infinity"
    (Invalid_argument "Quantile.histogram: non-finite observation") (fun () ->
      ignore (Stats.Quantile.histogram ~bins:2 [| Float.neg_infinity; 1.0 |]))

let histogram_counts () =
  let xs = [| 0.0; 0.1; 0.9; 1.0; 2.0 |] in
  let h = Stats.Quantile.histogram ~bins:2 xs in
  Alcotest.(check int) "bins" 2 (Array.length h);
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  Alcotest.(check int) "all counted" 5 total;
  let _, _, c0 = h.(0) and _, _, c1 = h.(1) in
  Alcotest.(check int) "low bin" 3 c0;
  Alcotest.(check int) "high bin" 2 c1

let histogram_degenerate () =
  let h = Stats.Quantile.histogram ~bins:3 [| 2.0; 2.0; 2.0 |] in
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  Alcotest.(check int) "all in one bin" 3 total

(* --- Regression ---------------------------------------------------- *)

let ols_exact_line () =
  let pts = Array.init 10 (fun i ->
      let x = float_of_int i in
      (x, (3.0 *. x) -. 1.0))
  in
  let fit = Stats.Regression.ols pts in
  check_loose "slope" 3.0 fit.Stats.Regression.slope;
  check_loose "intercept" (-1.0) fit.Stats.Regression.intercept;
  check_loose "r2" 1.0 fit.Stats.Regression.r_squared

let ols_errors () =
  Alcotest.check_raises "one point"
    (Invalid_argument "Regression.ols: need at least two points") (fun () ->
      ignore (Stats.Regression.ols [| (1.0, 1.0) |]));
  Alcotest.check_raises "constant x"
    (Invalid_argument "Regression.ols: x values are constant") (fun () ->
      ignore (Stats.Regression.ols [| (1.0, 1.0); (1.0, 2.0) |]))

let log_log_power_law () =
  let pts = Array.init 8 (fun i ->
      let x = Float.pow 2.0 (float_of_int (i + 1)) in
      (x, 5.0 *. Float.pow x 1.5))
  in
  let fit = Stats.Regression.log_log pts in
  check_loose "exponent" 1.5 fit.Stats.Regression.slope;
  check_loose "log coefficient" (log 5.0) fit.Stats.Regression.intercept

let log_log_rejects_nonpositive () =
  Alcotest.check_raises "zero x"
    (Invalid_argument "Regression.log_log: coordinates must be positive")
    (fun () -> ignore (Stats.Regression.log_log [| (0.0, 1.0); (1.0, 2.0) |]))

let pearson_perfect () =
  let pts = Array.init 5 (fun i -> (float_of_int i, float_of_int (2 * i))) in
  check_loose "rho = 1" 1.0 (Stats.Regression.pearson pts);
  let anti = Array.map (fun (x, y) -> (x, -.y)) pts in
  check_loose "rho = -1" (-1.0) (Stats.Regression.pearson anti)

let pearson_constant () =
  check_float "constant gives 0" 0.0
    (Stats.Regression.pearson [| (1.0, 5.0); (2.0, 5.0); (3.0, 5.0) |])

(* --- Bootstrap ----------------------------------------------------- *)

let bootstrap_mean_ci () =
  let rng = Prng.Xoshiro.create 3L in
  let xs = Array.init 200 (fun _ -> Prng.Dist.gaussian rng ~mu:10.0 ~sigma:2.0) in
  let ci = Stats.Bootstrap.mean_ci (Prng.Xoshiro.create 4L) xs in
  if ci.Stats.Bootstrap.lo > ci.Stats.Bootstrap.point
     || ci.Stats.Bootstrap.hi < ci.Stats.Bootstrap.point then
    Alcotest.fail "CI does not bracket the point estimate";
  if ci.Stats.Bootstrap.lo > 10.5 || ci.Stats.Bootstrap.hi < 9.5 then
    Alcotest.failf "CI [%g, %g] implausible for mean 10"
      ci.Stats.Bootstrap.lo ci.Stats.Bootstrap.hi

let bootstrap_statistic_ci_median () =
  let xs = Array.init 101 (fun i -> float_of_int i) in
  let ci =
    Stats.Bootstrap.statistic_ci (Prng.Xoshiro.create 5L)
      Stats.Quantile.median xs
  in
  check_float "point is sample median" 50.0 ci.Stats.Bootstrap.point

let bootstrap_errors () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Bootstrap.statistic_ci: empty sample") (fun () ->
      ignore (Stats.Bootstrap.mean_ci (Prng.Xoshiro.create 1L) [||]));
  Alcotest.check_raises "bad confidence"
    (Invalid_argument "Bootstrap.statistic_ci: confidence outside (0,1)")
    (fun () ->
      ignore
        (Stats.Bootstrap.mean_ci ~confidence:1.0 (Prng.Xoshiro.create 1L)
           [| 1.0 |]))

(* --- QCheck -------------------------------------------------------- *)

let qcheck_running_mean_bounds =
  QCheck.Test.make ~count:100 ~name:"mean within [min, max]"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 50) (float_range (-1e6) 1e6))
    (fun xs ->
      let acc = Stats.Running.create () in
      List.iter (Stats.Running.add acc) xs;
      let m = Stats.Running.mean acc in
      m >= Stats.Running.min acc -. 1e-6
      && m <= Stats.Running.max acc +. 1e-6)

let qcheck_quantile_monotone =
  QCheck.Test.make ~count:100 ~name:"quantiles monotone in q"
    QCheck.(list_of_size (QCheck.Gen.int_range 2 50) (float_range (-100.) 100.))
    (fun xs ->
      let a = Array.of_list xs in
      Stats.Quantile.quantile a 0.25 <= Stats.Quantile.quantile a 0.75 +. 1e-9)

let () =
  Alcotest.run "stats"
    [
      ( "running",
        [
          Alcotest.test_case "empty" `Quick running_empty;
          Alcotest.test_case "matches direct" `Quick running_matches_direct;
          Alcotest.test_case "rejects nan" `Quick running_rejects_nan;
          Alcotest.test_case "of_array" `Quick running_of_array;
          Alcotest.test_case "std error" `Quick running_std_error;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "known values" `Quick quantile_known;
          Alcotest.test_case "unsorted input" `Quick quantile_unsorted_input;
          Alcotest.test_case "preserves input" `Quick quantile_preserves_input;
          Alcotest.test_case "errors" `Quick quantile_errors;
          Alcotest.test_case "rejects non-finite" `Quick
            quantile_rejects_non_finite;
          Alcotest.test_case "histogram rejects non-finite" `Quick
            histogram_rejects_non_finite;
          Alcotest.test_case "histogram" `Quick histogram_counts;
          Alcotest.test_case "histogram degenerate" `Quick histogram_degenerate;
        ] );
      ( "regression",
        [
          Alcotest.test_case "exact line" `Quick ols_exact_line;
          Alcotest.test_case "errors" `Quick ols_errors;
          Alcotest.test_case "power law" `Quick log_log_power_law;
          Alcotest.test_case "rejects nonpositive" `Quick log_log_rejects_nonpositive;
          Alcotest.test_case "pearson perfect" `Quick pearson_perfect;
          Alcotest.test_case "pearson constant" `Quick pearson_constant;
        ] );
      ( "bootstrap",
        [
          Alcotest.test_case "mean ci" `Quick bootstrap_mean_ci;
          Alcotest.test_case "median ci" `Quick bootstrap_statistic_ci_median;
          Alcotest.test_case "errors" `Quick bootstrap_errors;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ qcheck_running_mean_bounds; qcheck_quantile_monotone ] );
    ]
