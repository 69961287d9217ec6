(* Order statistics for the benchmark's timings.

   Percentiles use the nearest-rank definition on the sorted samples:
   the p-th percentile of n samples is the k-th smallest with
   k = ceil(p * n / 100), so exactly n - k samples lie beyond it.
   Percentiles are named in per-mille to keep the arithmetic exact
   (999 is p99.9). *)

let median = function
  | [] -> invalid_arg "Pstats.median: no samples"
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The percentiles a tail figure is chosen from, highest first. *)
let ladder_permille = [ 999; 990; 950; 900; 750; 500 ]

let rank ~permille n = ((permille * n) + 999) / 1000

(* The highest percentile with at least 10 samples beyond it. *)
let tail_permille n =
  List.find_opt (fun pm -> n - rank ~permille:pm n >= 10) ladder_permille

let percentile ~permille = function
  | [] -> invalid_arg "Pstats.percentile: no samples"
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      a.(max 1 (rank ~permille (Array.length a)) - 1)

let permille_label pm =
  if pm mod 10 = 0 then Printf.sprintf "p%d" (pm / 10)
  else Printf.sprintf "p%d.%d" (pm / 10) (pm mod 10)
