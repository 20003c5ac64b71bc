(* Order statistics used by the benchmark driver and its self-tests. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [p] percent of the samples at or below it. Returns the
   value and how many samples lie beyond its rank. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n /. 100.))) in
  let rank = min rank n in
  (a.(rank - 1), n - rank)

(* The tail the benchmark reports: the first percentile of [ladder]
   that still has at least 10 samples beyond it, so a tail
   figure is never one or two stragglers. Each workload passes the
   ladder that resolves at its own run length, so the percentile does
   not flip between runs as throughput drifts; the lower rungs only
   serve runs too short for the first one. p99 is not on any ladder: on
   a shared 2-core host it read 1.0 to 1.9 ms between runs of the same
   netgen instant stream, moved by bursts of host contention covering
   about 1% of a run, so the driver reports it as a per-layer number. *)
let default_ladder = [ 90.; 75.; 50. ]

let tail ?(ladder = default_ladder) a =
  let rec go = function
    | [] -> None
    | p :: rest ->
        let v, beyond = percentile a p in
        if beyond >= 10 then Some (p, v, beyond) else go rest
  in
  match go ladder with
  | Some t -> t
  | None ->
      let v, beyond = percentile a 50. in
      (50., v, beyond)

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] (the
   default "exclusive" method) gives them, so figures printed here match
   the ones the spread check computes from the JSON results. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = ld + 1 and n = 4 in
  let q i =
    let j = i * m / n in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * n) in
    ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
    /. float_of_int n
  in
  (q 1, q 2, q 3)

let median xs =
  match xs with
  | [] -> invalid_arg "Stats.median: no samples"
  | [ x ] -> x
  | _ ->
      let _, m, _ = quartiles xs in
      m

(* The median of a mix of op kinds, each op counted at its own kind's
   median latency. When a closed loop cycles through kinds of very
   different cost, the plain median falls in the gap between two kinds
   and reads the slowest op of the faster one, an extreme order
   statistic; this reads the typical op of the kinds on either side of
   the gap instead. For a single kind it is the plain median. *)
let mix_median (kinds : float list list) =
  let kinds = List.filter (fun xs -> xs <> []) kinds in
  median
    (List.concat_map
       (fun xs ->
         let m = median xs in
         List.map (fun _ -> m) xs)
       kinds)

(* Median op latency of a run on a host whose speed drifts. The ops
   0..n-1 are cut into consecutive windows of whole cycles, each closing
   at the first cycle end at least [span] after it opened ([ends] holds
   each op's end time, [start] the first op's start); a short remainder
   joins the last window. Each window gives its mix median and the
   result is their mean: a window's median shrugs off the stragglers in
   it, and the mean over windows moves in proportion to the share of
   the run the host spent slow, where one median over the whole run
   jumps between a fast and a slow mode. *)
let windowed_median ~cycle ~span ~start ~(ends : int array) ~(lat : float array)
    ~(kinds : int array) n =
  if n = 0 then invalid_arg "Stats.windowed_median: no samples";
  let nk = 1 + Array.fold_left max 0 (Array.sub kinds 0 n) in
  let window (lo, hi) =
    mix_median
      (List.init nk (fun k ->
           List.filter_map
             (fun j -> if kinds.(j) = k then Some lat.(j) else None)
             (List.init (hi - lo) (fun j -> lo + j))))
  in
  let rec cut opened lo e acc =
    if e >= n then acc
    else if ends.(e) - opened >= span then cut ends.(e) (e + 1) (e + cycle) ((lo, e + 1) :: acc)
    else cut opened lo (e + cycle) acc
  in
  let windows =
    match cut start 0 (cycle - 1) [] with
    | [] -> [ (0, n) ]
    | (lo, _) :: earlier -> List.rev ((lo, n) :: earlier)
  in
  List.fold_left (fun acc w -> acc +. window w) 0. windows
  /. float_of_int (List.length windows)

(* Inter-quartile distance as a share of the median. *)
let spread xs =
  let q1, m, q3 = quartiles xs in
  if m = 0. then 0. else (q3 -. q1) /. Float.abs m
