(* Order statistics for the benchmark: medians, quartiles, the noise
   floor, and the rule deciding which tail percentiles a sample supports.

   Quantiles interpolate linearly between order statistics (the
   "inclusive" definition: q(0) is the minimum, q(1) the maximum), so a
   median of an even-sized sample is the mean of its middle pair. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* [quantile_sorted a q] for [a] sorted ascending and [0 <= q <= 1]. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then invalid_arg "Perf_stats.quantile: empty sample";
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float pos in
  let hi = min (n - 1) (lo + 1) in
  let frac = pos -. float_of_int lo in
  a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

(* (first quartile, median, third quartile) *)
let quartiles xs =
  let a = sorted xs in
  (quantile_sorted a 0.25, quantile_sorted a 0.5, quantile_sorted a 0.75)

(* The noise floor: interquartile range as a share of the median.  A
   difference smaller than this between two medians is not resolved. *)
let noise_floor xs =
  let q1, m, q3 = quartiles xs in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m

(* A tail percentile is only reported when at least [min_beyond] samples
   lie strictly above its rank: p90 needs 100 samples, p99 needs 1000.
   Percentiles are whole numbers so the rank is exact integer arithmetic
   ((1 - 0.9) * 100 is 9.999... in floating point). *)
let min_beyond = 10

let beyond ~pct n = n - (((n * pct) + 99) / 100)
let supports ~pct n = beyond ~pct n >= min_beyond

(* The highest whole percentile (below 100) that [n] samples support. *)
let highest_supported n =
  let rec go pct =
    if pct < 1 then None else if supports ~pct n then Some pct else go (pct - 1)
  in
  go 99
