(* The benchmark's statistical rules, kept free of the simulator so the
   tests can pin them down.

   Latency samples of ops that failed (an error reply, or never
   finished because the run aborted) are +infinity: a failed op misses
   every latency limit, so an aborted run can never read better than a
   clean one. *)

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

(* Median of a set of measurements (mean of the middle pair when even). *)
let median xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    let n = Array.length a in
    if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile over an already sorted array: the sample at
   rank ceil(p/100 * n), 1-based.  The slack keeps p99.9 of 10000
   samples at rank 9990 despite rounding in p/100. *)
let rank_of ~n p = max 1 (int_of_float (Float.ceil ((p *. float_of_int n /. 100.0) -. 1e-9)))

let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then nan else a.(rank_of ~n p - 1)

(* The percentiles the tail may be reported at, highest first. *)
let tail_ladder = [ 99.99; 99.9; 99.0; 90.0; 75.0; 50.0 ]

(* Samples strictly beyond percentile [p]'s rank. *)
let beyond ~n p = n - rank_of ~n p

type tail = { t_pct : float; t_value : float; t_beyond : int; t_samples : int }

(* The highest percentile of the ladder with at least 10 samples
   beyond it; [None] when even the median has too few. *)
let tail samples =
  let min_beyond = 10 in
  let a = sorted samples in
  let n = Array.length a in
  List.find_map
    (fun p ->
      let b = beyond ~n p in
      if n > 0 && b >= min_beyond then
        Some { t_pct = p; t_value = percentile_sorted a p; t_beyond = b; t_samples = n }
      else None)
    tail_ladder

(* Per-op normalisation of a counter delta.  Zero ops gives nan (shown
   as absent), never a division by zero passing as a rate. *)
let per_op ~ops delta = if ops <= 0 then nan else delta /. float_of_int ops

(* Ratio of two deltas; nan when the base did not move. *)
let ratio num den = if den = 0.0 then nan else num /. den

(* Op accounting for one measured phase.  [budget] ops were due; every
   op of the budget that did not succeed is failed, whether it returned
   an error or never ran because the rig aborted. *)
type accounting = { attempted : int; succeeded : int; failed : int; fail_frac : float }

let account ~budget ~succeeded =
  let failed = budget - succeeded in
  let fail_frac = ratio (float_of_int failed) (float_of_int budget) in
  { attempted = budget; succeeded; failed; fail_frac }

(* Throughput in ops per virtual millisecond.  An aborted run has no
   goodput: the partial window before the abort is not a measurement. *)
let vops_per_ms ~aborted ~succeeded ~elapsed_ns =
  if aborted || elapsed_ns <= 0.0 then 0.0 else float_of_int succeeded /. (elapsed_ns /. 1e6)

(* Median of the last decile of [xs] (in issue order) over the median
   of the first decile; how much an op's cost grew over the run.  Only
   successful ops count: a failed op's +inf latency says nothing of
   cost. *)
let drift xs =
  let xs = Array.of_list (List.filter Float.is_finite (Array.to_list xs)) in
  let n = Array.length xs in
  let k = n / 10 in
  if k = 0 then nan
  else
    let dec i = median (Array.to_list (Array.sub xs i k)) in
    ratio (dec (n - k)) (dec 0)
