(* Self-tests of the benchmark's statistics: the tail percentile rule,
   the mix and windowed medians, Python-compatible quartiles and spread,
   span self-time subtraction and the host-speed scale. Run by `dune runtest`. *)

open Perfbench_stats

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let range n = Stats.sorted (List.init n (fun i -> float_of_int (i + 1)))

let () =
  (* nearest rank: p50 of 1..10 is 5 with 5 beyond; p90 is 9, 1 beyond *)
  check "p50 of 1..10" (Stats.percentile (range 10) 50. = (5., 5));
  check "p90 of 1..10" (Stats.percentile (range 10) 90. = (9., 1));
  check "p100 is the max" (Stats.percentile (range 10) 100. = (10., 0));
  check "p0 is the min" (Stats.percentile (range 10) 0. = (1., 9));
  (* tail: p90 needs 100 samples for 10 beyond, p75 needs 40 *)
  check "tail of 1000 is p90" (Stats.tail (range 1000) = (90., 900., 100));
  check "tail of 100 is p90" (Stats.tail (range 100) = (90., 90., 10));
  check "tail of 99 falls to p75" (Stats.tail (range 99) = (75., 75., 24));
  check "tail of 40 is p75" (Stats.tail (range 40) = (75., 30., 10));
  check "tail of 25 falls to p50" (Stats.tail (range 25) = (50., 13., 12));
  check "tail of 3 keeps p50" (Stats.tail (range 3) = (50., 2., 1));
  check "a ladder starting at p75 stays there"
    (Stats.tail ~ladder:[ 75.; 50. ] (range 1000) = (75., 750., 250));
  (* quartiles: values printed by Python's statistics.quantiles(xs, n=4) *)
  let q xs (a, b, c) =
    let x, y, z = Stats.quartiles xs in
    close x a && close y b && close z c
  in
  check "quartiles 1..10"
    (q (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25));
  check "quartiles unsorted" (q [ 3.5; 1.25; 9.0; 4.0 ] (1.8125, 3.75, 7.75));
  check "quartiles of two" (q [ 2.0; 7.0 ] (0.75, 4.5, 8.25));
  check "quartiles odd" (q [ 5.; 1.; 4.; 2.; 3. ] (1.5, 3.0, 4.5));
  check "median even" (close (Stats.median [ 4.; 1.; 3.; 2. ]) 2.5);
  check "spread 1..10" (close (Stats.spread (List.init 10 (fun i -> float_of_int (i + 1)))) 1.0);
  check "spread of equal values" (close (Stats.spread [ 2.; 2.; 2.; 2. ]) 0.);
  (* mix median: two kinds of four ops each read at their own medians,
     so the result is halfway between the kinds' medians, not the
     slowest op of the fast kind *)
  check "mix median of two kinds"
    (close (Stats.mix_median [ [ 1.; 2.; 3.; 10. ]; [ 100.; 101.; 102.; 103. ] ]) 52.);
  check "mix median weights kinds by count"
    (close (Stats.mix_median [ [ 1.; 2.; 3. ]; [ 50. ] ]) 2.);
  check "mix median of one kind" (close (Stats.mix_median [ [ 3.; 1.; 2. ] ]) 2.);
  (* windowed median: ops end at t = 1..n, one kind, cycles of 2, windows
     of at least 4 time units from the first op's start at 0 *)
  let wm lat =
    let n = Array.length lat in
    Stats.windowed_median ~cycle:2 ~span:4 ~start:0
      ~ends:(Array.init n (fun i -> i + 1)) ~lat ~kinds:(Array.make n 0) n
  in
  (* windows [1..4] and [5..8]: medians 1.5 and 11.5, mean 6.5 *)
  check "windowed median is the mean of window medians"
    (close (wm [| 1.; 1.; 2.; 9.; 10.; 11.; 12.; 50. |]) 6.5);
  (* ops 9..10 are short of a window and join the second one *)
  check "a short remainder joins the last window"
    (close (wm [| 1.; 1.; 2.; 9.; 10.; 11.; 12.; 50.; 13.; 14. |]) ((1.5 +. 12.5) /. 2.));
  check "a run shorter than a window is one window" (close (wm [| 3.; 1.; 2.; 4. |]) 2.5);
  (* two kinds per cycle: each window reads its kinds at their medians *)
  check "windowed median of two kinds"
    (close
       (Stats.windowed_median ~cycle:2 ~span:4 ~start:0 ~ends:[| 1; 2; 3; 4 |]
          ~lat:[| 1.; 100.; 3.; 104. |] ~kinds:[| 0; 1; 0; 1 |] 4)
       52.)

(* Self time: a parent [0, 100] with children [10, 30] and [20, 50]
   (overlapping: covered 10..50) and a child [90, 120] clipped to the
   parent (covered 90..100) keeps 100 - 40 - 10 = 50. *)
let () =
  let sp name start_ns stop_ns parent = { Spans.name; start_ns; stop_ns; parent; op = 0 } in
  let spans =
    [| sp "op" 0 100 (-1); sp "a" 10 30 0; sp "b" 20 50 0; sp "c" 90 120 0;
       sp "d" 22 25 2 |]
  in
  let self = Spans.self_times spans in
  check "parent self time" (self.(0) = 50);
  check "leaf self time" (self.(1) = 20);
  check "self time minus grandchild" (self.(2) = 27);
  check "child past its parent keeps its own time" (self.(3) = 30);
  let summary = Spans.summary ~keep:(fun s -> s.Spans.name <> "d") spans in
  check "summary sums self time per name" (Hashtbl.find summary "op" = (1, 50));
  check "summary skips unkept spans" (not (Hashtbl.mem summary "d"))

(* The recorder nests spans through its stack and stamps the op id. *)
let () =
  let ticks = ref 0 in
  let clock () =
    incr ticks;
    10 * !ticks
  in
  let t = Spans.create ~clock in
  Spans.set_op t 7;
  Spans.record t "op" (fun () -> Spans.record t "inner" (fun () -> ()));
  let spans = Spans.spans t in
  check "two spans" (Array.length spans = 2);
  check "inner nests under op" (spans.(1).Spans.parent = 0 && spans.(0).Spans.parent = -1);
  check "op id stamped" (Array.for_all (fun s -> s.Spans.op = 7) spans);
  check "inner inside op"
    (spans.(0).Spans.start_ns < spans.(1).Spans.start_ns
    && spans.(1).Spans.stop_ns < spans.(0).Spans.stop_ns)

(* The host-speed probe: a pass of the kernel is the same work every
   time, a burst runs when due, and a factor is the reference over the
   median timed pass. *)
let () =
  let copy a = Array.init (Bigarray.Array1.dim a) (Bigarray.Array1.get a) in
  let state () = (copy Hostspeed.small, copy Hostspeed.large) in
  let first = (Hostspeed.kernel (); state ()) in
  Hostspeed.kernel ();
  check "kernel passes repeat" (first = state ());
  let ticks = ref 0 in
  let h = Hostspeed.create ~clock:(fun () -> !ticks) in
  check "no samples: factor 1" (close (Hostspeed.factor h) 1.);
  Hostspeed.tick h ~every_ns:10;
  check "the first tick samples" (List.length h.Hostspeed.samples = 1);
  Hostspeed.tick h ~every_ns:10;
  check "no sample before the interval" (List.length h.Hostspeed.samples = 1);
  ticks := 10;
  Hostspeed.tick h ~every_ns:10;
  check "a sample once the interval passed" (List.length h.Hostspeed.samples = 2);
  h.Hostspeed.samples <- [ 2.; 4.; 1. ];
  check "factor is reference over median"
    (close (Hostspeed.factor h) (Hostspeed.reference_ms /. 2.));
  (* a clock that moves 0.5 ms per read: every timed pass reads 0.5 ms *)
  let now = ref 0 in
  let h = Hostspeed.create ~clock:(fun () -> now := !now + 500_000; !now) in
  let f = Hostspeed.burst ~keep:3 h in
  check "burst factor" (close f (Hostspeed.reference_ms /. 0.5));
  check "burst sets the current factor" (close h.Hostspeed.current f);
  check "burst keeps its timed passes" (List.length h.Hostspeed.samples = 3)

let () =
  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end
