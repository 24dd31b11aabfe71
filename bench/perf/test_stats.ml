(* Unit tests of the benchmark's order statistics.  Pure: no dcheck
   process is spawned. *)

open Perf_stats

let close = Alcotest.float 1e-9

let test_median () =
  Alcotest.check close "odd count" 3.0 (median [ 5.0; 1.0; 3.0 ]);
  Alcotest.check close "even count: mean of the middle pair" 2.5
    (median [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.check close "single sample" 7.0 (median [ 7.0 ]);
  Alcotest.check_raises "empty sample"
    (Invalid_argument "Perf_stats.quantile: empty sample") (fun () ->
      ignore (median []))

let test_quartiles () =
  let q1, m, q3 = quartiles [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  Alcotest.check close "q1" 2.0 q1;
  Alcotest.check close "median" 3.0 m;
  Alcotest.check close "q3" 4.0 q3;
  (* interpolated: positions 0.75 and 2.25 of 0..3 *)
  let q1, _, q3 = quartiles [ 10.0; 20.0; 30.0; 40.0 ] in
  Alcotest.check close "interpolated q1" 17.5 q1;
  Alcotest.check close "interpolated q3" 32.5 q3;
  Alcotest.check close "p90 of 0..100" 90.0
    (quantile (List.init 101 float_of_int) 0.9)

let test_noise_floor () =
  Alcotest.check close "IQR over median" (2.0 /. 3.0)
    (noise_floor [ 1.0; 2.0; 3.0; 4.0; 5.0 ]);
  Alcotest.check close "constant sample has no spread" 0.0
    (noise_floor [ 2.0; 2.0; 2.0 ]);
  Alcotest.check close "zero median does not divide" 0.0
    (noise_floor [ -1.0; 0.0; 1.0 ])

let test_tail_rule () =
  Alcotest.(check bool) "p90 on 100 samples" true (supports ~pct:90 100);
  Alcotest.(check bool) "p90 refused on 99 samples" false (supports ~pct:90 99);
  Alcotest.(check bool) "p99 needs 1000" true (supports ~pct:99 1000);
  Alcotest.(check bool) "p99 refused on 999" false (supports ~pct:99 999);
  Alcotest.(check bool) "p50 on 20" true (supports ~pct:50 20);
  Alcotest.(check (option int)) "100 samples" (Some 90) (highest_supported 100);
  Alcotest.(check (option int)) "3000 samples" (Some 99) (highest_supported 3000);
  Alcotest.(check (option int)) "40 samples" (Some 75) (highest_supported 40);
  Alcotest.(check (option int)) "10 samples" None (highest_supported 10)

let () =
  Alcotest.run "perf_stats"
    [
      ( "order statistics",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "noise floor" `Quick test_noise_floor;
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
        ] );
    ]
