(* Order statistics over latency samples. Percentiles are whole per
   mille, so ranks are exact integer arithmetic. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest rank (1-based) of the [pm] per-mille quantile of [n] samples. *)
let rank ~n pm = ((pm * n) + 999) / 1000

(* The [pm] per-mille quantile of a sorted array, nearest rank. *)
let at a pm =
  let n = Array.length a in
  if n = 0 then nan else a.(max 0 (min (n - 1) (rank ~n pm - 1)))

let quantile a q = at a (int_of_float (Float.round (q *. 1000.)))
let median xs = at (sorted xs) 500

(* Samples strictly beyond the [pm] per-mille quantile. *)
let beyond ~n pm = n - rank ~n pm

(* The highest of p99.9, p99 and p90 that has at least ten samples
   beyond it, as (percentile, value): p90 needs 100 samples, p99 1000. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  List.find_map
    (fun pm -> if beyond ~n pm >= 10 then Some (float_of_int pm /. 10., at a pm) else None)
    [ 999; 990; 900 ]
