open Util
module Sk = Telemetry.Sketch
module W = Telemetry.Window
module Rc = Telemetry.Recorder
module M = Telemetry.Monitor
module J = Telemetry.Json
module R = Telemetry.Registry
module D = Asr.Domain
module G = Asr.Graph
module S = Asr.Supervisor
module I = Asr.Inject

(* ------------------------------------------------------------------ *)
(* Sketch: mergeable quantiles with a relative-error guarantee         *)
(* ------------------------------------------------------------------ *)

let exact_quantile sorted q =
  let n = Array.length sorted in
  sorted.(int_of_float (Float.floor (q *. float_of_int (n - 1))))

let feed values =
  let s = Sk.create () in
  List.iter (Sk.add s) values;
  s

let sketch_tests =
  [ case "empty sketch: nan quantiles, zero counts" (fun () ->
        let s = Sk.create () in
        Alcotest.(check int) "count" 0 (Sk.count s);
        Alcotest.(check bool) "q nan" true (Float.is_nan (Sk.quantile s 0.5));
        Alcotest.(check bool) "min nan" true (Float.is_nan (Sk.min_value s)));
    case "zeros are recorded, not dropped" (fun () ->
        let s = feed [ 0.0; 0.0; 5.0 ] in
        Alcotest.(check int) "count" 3 (Sk.count s);
        Alcotest.(check int) "zeros" 2 (Sk.zero_count s);
        Alcotest.(check (float 0.0)) "p25 is zero" 0.0 (Sk.quantile s 0.25));
    case "nan, infinities and negatives count as out-of-range" (fun () ->
        let s = feed [ 1.0; nan; infinity; neg_infinity; -3.0 ] in
        Alcotest.(check int) "oor" 4 (Sk.out_of_range s);
        Alcotest.(check int) "count excludes them" 1 (Sk.count s);
        match J.member "out_of_range" (Sk.to_json s) with
        | Some (J.Int 4) -> ()
        | _ -> Alcotest.fail "to_json must flag out_of_range");
    case "quantiles of 1..1000 stay within the relative-error bound"
      (fun () ->
        let values = List.init 1000 (fun i -> float_of_int (i + 1)) in
        let s = feed values in
        let sorted = Array.of_list values in
        Array.sort compare sorted;
        List.iter
          (fun q ->
            let exact = exact_quantile sorted q in
            let est = Sk.quantile s q in
            let rel = Float.abs (est -. exact) /. exact in
            if rel > Sk.alpha s +. 1e-9 then
              Alcotest.failf "q=%.2f exact=%.1f est=%.3f rel=%.4f" q exact est
                rel)
          [ 0.0; 0.25; 0.5; 0.75; 0.95; 0.99; 1.0 ]);
    case "bucket overflow collapses and is flagged, never silent" (fun () ->
        let s = Sk.create ~alpha:0.05 ~max_buckets:16 () in
        for i = 0 to 99 do
          Sk.add s (Float.pow 2.0 (float_of_int (i mod 40)))
        done;
        Alcotest.(check bool) "collapsed flagged" true (Sk.collapsed s > 0);
        Alcotest.(check int) "count intact" 100 (Sk.count s);
        Alcotest.(check bool)
          "top quantile survives collapse" true
          (Float.abs (Sk.quantile s 1.0 -. Sk.max_value s)
          <= 0.11 *. Sk.max_value s));
    case "copy is independent of the original" (fun () ->
        let s = feed [ 1.0; 2.0; 3.0 ] in
        let c = Sk.copy s in
        Alcotest.(check bool) "equal after copy" true (Sk.equal s c);
        Sk.add s 100.0;
        Alcotest.(check int) "copy unchanged" 3 (Sk.count c);
        Alcotest.(check bool) "diverged" false (Sk.equal s c));
    case "clear empties everything" (fun () ->
        let s = feed [ 1.0; -1.0; 0.0 ] in
        Sk.clear s;
        Alcotest.(check int) "count" 0 (Sk.count s);
        Alcotest.(check int) "oor" 0 (Sk.out_of_range s);
        Alcotest.(check bool) "empty buckets" true (Sk.buckets s = []));
    case "bucket memo survives interleaved values (regression)" (fun () ->
        (* alternating values defeat the one-bucket memo on every add;
           the result must match grouped feeding exactly *)
        let a = Sk.create () and b = Sk.create () in
        for _ = 1 to 500 do
          Sk.add a 10.0;
          Sk.add a 1000.0
        done;
        for _ = 1 to 500 do
          Sk.add b 10.0
        done;
        for _ = 1 to 500 do
          Sk.add b 1000.0
        done;
        Alcotest.(check bool) "order-insensitive" true (Sk.equal a b)) ]

let pos_floats =
  QCheck.(list_of_size Gen.(1 -- 60) (float_range 0.001 1e6))

let any_floats =
  QCheck.(list_of_size Gen.(0 -- 40) (float_range (-5.0) 1e6))

let sketch_qcheck =
  [ qcase ~count:60 "merge is commutative"
      QCheck.(pair any_floats any_floats)
      (fun (xs, ys) ->
        let a = feed xs and b = feed ys in
        let ab = Sk.copy a and ba = Sk.copy b in
        Sk.merge ~into:ab b;
        Sk.merge ~into:ba a;
        Sk.equal ab ba);
    qcase ~count:60 "merge is associative"
      QCheck.(triple any_floats any_floats any_floats)
      (fun (xs, ys, zs) ->
        let a = feed xs and b = feed ys and c = feed zs in
        let left = Sk.copy a in
        Sk.merge ~into:left b;
        Sk.merge ~into:left c;
        let bc = Sk.copy b in
        Sk.merge ~into:bc c;
        let right = Sk.copy a in
        Sk.merge ~into:right bc;
        Sk.equal left right);
    qcase ~count:100 "quantile is monotone in q"
      QCheck.(pair pos_floats (pair (float_range 0.0 1.0) (float_range 0.0 1.0)))
      (fun (xs, (q1, q2)) ->
        let s = feed xs in
        let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
        Sk.quantile s lo <= Sk.quantile s hi +. 1e-9);
    qcase ~count:100 "estimates stay within alpha of the exact oracle"
      pos_floats
      (fun xs ->
        let s = feed xs in
        let sorted = Array.of_list xs in
        Array.sort compare sorted;
        List.for_all
          (fun q ->
            let exact = exact_quantile sorted q in
            Float.abs (Sk.quantile s q -. exact)
            <= (Sk.alpha s *. exact) +. 1e-9)
          [ 0.5; 0.95; 0.99 ]) ]

(* ------------------------------------------------------------------ *)
(* Window: sliding aggregations                                        *)
(* ------------------------------------------------------------------ *)

let window_tests =
  [ case "ring evicts oldest; aggregates cover the window only" (fun () ->
        let w = W.create ~capacity:4 () in
        List.iter (W.push w) [ 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 ];
        Alcotest.(check int) "size" 4 (W.size w);
        Alcotest.(check int) "pushed" 6 (W.pushed w);
        Alcotest.(check (float 1e-9)) "min" 3.0 (W.min_value w);
        Alcotest.(check (float 1e-9)) "max" 6.0 (W.max_value w);
        Alcotest.(check (float 1e-9)) "mean" 4.5 (W.mean w);
        Alcotest.(check (float 1e-9)) "last" 6.0 (W.last w));
    case "ewma seeds on the first sample and tracks the stream" (fun () ->
        let w = W.create ~ewma_alpha:0.5 ~capacity:4 () in
        W.push w 10.0;
        Alcotest.(check (float 1e-9)) "seeded" 10.0 (W.ewma w);
        W.push w 0.0;
        Alcotest.(check (float 1e-9)) "decays" 5.0 (W.ewma w));
    case "clear resets to empty" (fun () ->
        let w = W.create ~capacity:4 () in
        W.push w 1.0;
        W.clear w;
        Alcotest.(check int) "size" 0 (W.size w);
        Alcotest.(check bool) "mean nan" true (Float.is_nan (W.mean w))) ]

(* ------------------------------------------------------------------ *)
(* Recorder: flight ring with loss accounting                          *)
(* ------------------------------------------------------------------ *)

let push_i r i =
  Rc.push_values r ~instant:i ~cycles:(10 * i) ~iterations:1 ~block_evals:i
    ~net_churn:0 ~faults:(if i = 3 then 1 else 0)

let recorder_tests =
  [ case "wrap keeps the newest records and counts the loss" (fun () ->
        let r = Rc.create ~capacity:3 () in
        for i = 0 to 4 do
          push_i r i
        done;
        Alcotest.(check int) "size" 3 (Rc.size r);
        Alcotest.(check int) "overwrites" 2 (Rc.overwrites r);
        Alcotest.(check (list int)) "chronological tail" [ 2; 3; 4 ]
          (List.map (fun rec_ -> rec_.Rc.r_instant) (Rc.records r));
        match J.member "overwrites" (Rc.dump r) with
        | Some (J.Int 2) -> ()
        | _ -> Alcotest.fail "dump must flag overwrites");
    case "push and push_values are interchangeable" (fun () ->
        let a = Rc.create ~capacity:4 () and b = Rc.create ~capacity:4 () in
        for i = 0 to 5 do
          push_i a i;
          Rc.push b
            { Rc.r_instant = i; r_cycles = 10 * i; r_iterations = 1;
              r_block_evals = i; r_net_churn = 0;
              r_faults = (if i = 3 then 1 else 0) }
        done;
        Alcotest.(check bool) "same records" true (Rc.records a = Rc.records b);
        Alcotest.(check bool)
          "same dump" true
          (J.to_string (Rc.dump a) = J.to_string (Rc.dump b)));
    case "dump round-trips through the JSON parser" (fun () ->
        let r = Rc.create ~capacity:3 () in
        for i = 0 to 4 do
          push_i r i
        done;
        match J.parse (J.to_string (Rc.dump r)) with
        | parsed -> (
            match J.member "records" parsed with
            | Some (J.List rs) ->
                Alcotest.(check int) "retained records" 3 (List.length rs)
            | _ -> Alcotest.fail "records missing")
        | exception J.Parse_error msg -> Alcotest.fail msg) ]

(* ------------------------------------------------------------------ *)
(* Monitor: batched commit, spikes, snapshots, dumps                   *)
(* ------------------------------------------------------------------ *)

let drive_monitor m evals_of n =
  for i = 0 to n - 1 do
    M.instant_begin m;
    M.instant_end m ~iterations:1 ~block_evals:(evals_of i) ~net_churn:0
      ~faults:0
  done

(* a clock the test scripts: pops one preset timestamp per call *)
let scripted_clock times =
  let q = ref times in
  fun () ->
    match !q with
    | [] -> Alcotest.fail "clock polled past the script"
    | t :: rest ->
        q := rest;
        t

let monitor_tests =
  [ case "batched commit is invisible to every query" (fun () ->
        (* 45 is deliberately not a multiple of the commit batch *)
        let m = M.create () in
        drive_monitor m (fun i -> (i mod 7) + 1) 45;
        let direct = Sk.create () in
        for i = 0 to 44 do
          Sk.add direct (float_of_int ((i mod 7) + 1))
        done;
        Alcotest.(check int) "instants" 45 (M.instants m);
        Alcotest.(check bool)
          "evals sketch identical to unbatched feed" true
          (Sk.equal (M.evals m) direct);
        Alcotest.(check int) "flight ring exact" 45
          (Rc.pushed (M.recorder m));
        Alcotest.(check int) "cum evals exact" 174 (M.cum_block_evals m));
    case "latency spike is flagged against the prior EWMA" (fun () ->
        (* 10 quiet instants of latency 1.0, then one of 100.0 *)
        let lats = List.init 10 (fun _ -> 1.0) @ [ 100.0; 1.0 ] in
        let times =
          List.concat
            (List.mapi
               (fun i l -> [ float_of_int (1000 * i); float_of_int (1000 * i) +. l ])
               lats)
        in
        let m = M.create ~clock:(scripted_clock times) () in
        drive_monitor m (fun _ -> 1) (List.length lats);
        Alcotest.(check int) "one spike" 1 (M.spike_count m));
    case "default tick clock records latency 1.0 per instant" (fun () ->
        let m = M.create () in
        drive_monitor m (fun _ -> 1) 5;
        Alcotest.(check (float 1e-9)) "sum of latencies" 5.0
          (Sk.sum (M.latency m)));
    case "periodic snapshots parse and advance monotonically" (fun () ->
        let lines = ref [] in
        let m =
          M.create ~snapshot_every:4
            ~snapshot_sink:(fun l -> lines := l :: !lines)
            ()
        in
        drive_monitor m (fun _ -> 2) 10;
        Alcotest.(check int) "emitted" 2 (M.snapshots_emitted m);
        let parsed = List.rev_map J.parse !lines in
        let instants =
          List.map
            (fun s ->
              match J.member "instants" s with
              | Some (J.Int n) -> n
              | _ -> Alcotest.fail "snapshot missing instants")
            parsed
        in
        Alcotest.(check (list int)) "snapshot cadence" [ 4; 8 ] instants);
    case "reset returns the monitor to its initial state" (fun () ->
        let m = M.create () in
        drive_monitor m (fun _ -> 3) 40;
        M.reset m;
        Alcotest.(check int) "instants" 0 (M.instants m);
        Alcotest.(check int) "sketch" 0 (Sk.count (M.latency m));
        Alcotest.(check int) "ring" 0 (Rc.pushed (M.recorder m));
        Alcotest.(check int) "spikes" 0 (M.spike_count m);
        Alcotest.(check bool) "health" true (M.health m = [])) ]

(* ------------------------------------------------------------------ *)
(* Monitor wired into the simulator                                    *)
(* ------------------------------------------------------------------ *)

let gain_graph () =
  let g = G.create "t" in
  let b = G.add_block g (Asr.Block.gain 2) in
  let inp = G.add_input g "x" in
  let out = G.add_output g "y" in
  G.connect g ~src:(G.out_port inp 0) ~dst:(G.in_port b 0);
  G.connect g ~src:(G.out_port b 0) ~dst:(G.in_port out 0);
  g

let stream n = List.init n (fun i -> [ ("x", D.int (i mod 3)) ])

let sim_tests =
  [ case "snapshot reconciles exactly with the telemetry registry" (fun () ->
        let reg = R.create () in
        let m = M.create () in
        let sim = Asr.Simulate.create ~telemetry:reg ~monitor:m (gain_graph ()) in
        List.iter (fun i -> ignore (Asr.Simulate.step sim i)) (stream 20);
        let cval name =
          match
            List.find_opt (fun c -> c.R.c_name = name) (R.counters reg)
          with
          | Some c -> c.R.c_value
          | None -> Alcotest.failf "counter %s missing" name
        in
        Alcotest.(check int) "instants" (cval "asr.instants") (M.instants m);
        Alcotest.(check int) "evals"
          (cval "asr.block_evaluations")
          (M.cum_block_evals m));
    case "data-loss flags surface in the snapshot" (fun () ->
        (* tiny ring so it wraps; a negative cycles source so the cycles
           sketch sees out-of-range samples *)
        let m =
          M.create ~recorder_capacity:4 ~cycles_source:(fun () -> -1) ()
        in
        let sim = Asr.Simulate.create ~monitor:m (gain_graph ()) in
        List.iter (fun i -> ignore (Asr.Simulate.step sim i)) (stream 10);
        let snap = M.snapshot m in
        match J.member "data_loss" snap with
        | Some dl ->
            (match J.member "recorder_overwrites" dl with
            | Some (J.Int 6) -> ()
            | v ->
                Alcotest.failf "recorder_overwrites: %s"
                  (match v with Some j -> J.to_string j | None -> "missing"));
            (match J.member "sketch_out_of_range" dl with
            | Some (J.Int 10) -> ()
            | v ->
                Alcotest.failf "sketch_out_of_range: %s"
                  (match v with Some j -> J.to_string j | None -> "missing"))
        | None -> Alcotest.fail "snapshot missing data_loss");
    case "churn_every:1 monitor matches the exact telemetry scan" (fun () ->
        let run ?telemetry () =
          let m = M.create ~churn_every:1 () in
          let sim =
            Asr.Simulate.create ?telemetry ~monitor:m (gain_graph ())
          in
          List.iter (fun i -> ignore (Asr.Simulate.step sim i)) (stream 12);
          M.cum_net_churn m
        in
        let sampled = run () in
        let exact = run ~telemetry:(R.create ()) () in
        Alcotest.(check int) "same churn" exact sampled;
        Alcotest.(check bool) "nonzero on a toggling stream" true (exact > 0));
    case "churn_every:0 disables the scan entirely" (fun () ->
        let m = M.create ~churn_every:0 () in
        let sim = Asr.Simulate.create ~monitor:m (gain_graph ()) in
        List.iter (fun i -> ignore (Asr.Simulate.step sim i)) (stream 12);
        Alcotest.(check int) "no churn recorded" 0 (M.cum_net_churn m));
    case "quarantine dump is deterministic and covers the faulty streak"
      (fun () ->
        let run () =
          let dumps = ref [] in
          let m = M.create ~dump_sink:(fun d -> dumps := d :: !dumps) () in
          let inj =
            I.make
              [ { I.i_block = 0; i_kind = I.Trap; i_instant = 3;
                  i_persistence = I.Persistent; i_first_only = false } ]
          in
          let g = I.instrument inj (gain_graph ()) in
          let sup = S.create ~escalate_after:2 () in
          let sim = Asr.Simulate.create ~supervisor:sup ~monitor:m g in
          List.iter
            (fun i ->
              ignore (Asr.Simulate.step sim i);
              I.tick inj)
            (stream 10);
          (m, List.rev_map J.to_string !dumps)
        in
        let m1, d1 = run () in
        let _, d2 = run () in
        Alcotest.(check bool) "dump emitted" true (d1 <> []);
        Alcotest.(check (list string)) "deterministic" d1 d2;
        (match M.last_dump m1 with
        | Some d -> (
            match J.member "flight" d with
            | Some flight -> (
                match J.member "records" flight with
                | Some (J.List rs) ->
                    let faulty =
                      List.length
                        (List.filter
                           (fun r -> J.member "faults" r = Some (J.Int 1))
                           rs)
                    in
                    Alcotest.(check bool)
                      "streak covered" true (faulty >= 2)
                | _ -> Alcotest.fail "flight records missing")
            | None -> Alcotest.fail "dump missing flight")
        | None -> Alcotest.fail "last_dump missing");
        let q =
          List.filter (fun h -> h.M.h_quarantined) (M.health m1)
        in
        Alcotest.(check int) "one block quarantined" 1 (List.length q);
        Alcotest.(check bool)
          "streak length recorded" true
          (List.for_all (fun h -> h.M.h_max_streak >= 2) q)) ]

(* ------------------------------------------------------------------ *)
(* Churn semantics: a sampled record is that instant's exact churn     *)
(* ------------------------------------------------------------------ *)

module Sim = Asr.Simulate
module Fx = Asr.Fixpoint
module K = Asr.Checkpoint

(* A generated net with chains, forks, delays and cyclic components, so
   the fused fast lane collapses nets the kernel lane materializes. *)
let churn_net () =
  Workloads.Netgen.generate ~inputs:4 ~delays:4 ~cyclic_ratio:0.04 ~seed:11
    ~depth:8 ~width:10 ()

let churn_stream g = Workloads.Netgen.stimulus g ~instants:24

let count_changed a b =
  let c = ref 0 in
  Array.iteri (fun i v -> if not (D.equal v b.(i)) then incr c) a;
  !c

(* Exact per-instant churn as a sink-free simulator on the same lane
   observes it: nets whose [net_values] differ from the previous
   instant's. *)
let net_values_churn ?supervisor ~strategy g stream =
  let sim = Sim.create ~strategy ?supervisor g in
  let prev = ref (Sim.net_values sim) in
  List.map
    (fun inputs ->
      ignore (Sim.step sim inputs);
      let cur = Sim.net_values sim in
      let c = count_changed cur !prev in
      prev := cur;
      c)
    stream

(* Exact per-instant churn from the registry's instant spans. *)
let registry_churn ?supervisor ~strategy g stream =
  let reg = R.create ~max_spans:100_000 () in
  let sim = Sim.create ~strategy ?supervisor ~telemetry:reg g in
  List.iter (fun i -> ignore (Sim.step sim i)) stream;
  List.filter_map
    (fun s ->
      match (s.R.sp_name, List.assoc_opt "net_churn" s.R.sp_args) with
      | "instant", Some (R.Int c) -> Some c
      | _ -> None)
    (R.spans reg)

let sampled_monitor () = M.create ~churn_every:3 ~recorder_capacity:64 ()

(* Each record's churn: the exact value on sampled instants (k-1, 2k-1,
   ... for k = 3), 0 between samples. *)
let expect_sampled ~what ~exact records =
  List.iter
    (fun r ->
      let i = r.Rc.r_instant in
      let want = if (i + 1) mod 3 = 0 then List.nth exact i else 0 in
      Alcotest.(check int)
        (Printf.sprintf "%s: instant %d churn" what i)
        want r.Rc.r_net_churn)
    records

(* A monitor-only (k = 3) run's flight records, one per instant. *)
let sampled_records ?supervisor ~strategy g stream =
  let m = sampled_monitor () in
  let sim = Sim.create ~strategy ?supervisor ~monitor:m g in
  List.iter (fun i -> ignore (Sim.step sim i)) stream;
  Rc.records (M.recorder m)

let supervisor_of policy = Option.map (fun p -> S.create ~policy:p ()) policy

let churn_tests =
  [ case "churn_every:3 samples the exact churn of the sampled instant"
      (fun () ->
        let g = churn_net () in
        let stream = churn_stream g in
        (* fused fast lane (no supervisor) and supervised kernel lane *)
        List.iter
          (fun (what, policy) ->
            let exact =
              net_values_churn ?supervisor:(supervisor_of policy)
                ~strategy:Fx.Fused g stream
            in
            Alcotest.(check bool) (what ^ ": the stream moves nets") true
              (List.exists (fun c -> c > 0) exact);
            if policy <> None then
              (* all nets materialize on the kernel lane, so the
                 registry's exact scan sees the same churn *)
              Alcotest.(check (list int))
                (what ^ ": registry churn")
                exact
                (registry_churn ?supervisor:(supervisor_of policy)
                   ~strategy:Fx.Fused g stream);
            let records =
              sampled_records ?supervisor:(supervisor_of policy)
                ~strategy:Fx.Fused g stream
            in
            Alcotest.(check int) (what ^ ": every instant recorded")
              (List.length stream) (List.length records);
            expect_sampled ~what ~exact records)
          [ ("fast lane", None); ("supervised lane", Some S.Hold_last) ];
        (* the plain strategies materialize every net too *)
        List.iter
          (fun strategy ->
            expect_sampled ~what:(Fx.strategy_name strategy)
              ~exact:(registry_churn ~strategy g stream)
              (sampled_records ~strategy g stream))
          [ Fx.Scheduled; Fx.Worklist ]);
    case "sampled churn stays exact across a mid-window checkpoint resume"
      (fun () ->
        let g = churn_net () in
        let stream = churn_stream g in
        List.iter
          (fun (what, policy) ->
            let exact =
              net_values_churn ?supervisor:(supervisor_of policy)
                ~strategy:Fx.Fused g stream
            in
            let sim =
              Sim.create ~strategy:Fx.Fused ?supervisor:(supervisor_of policy)
                ~monitor:(sampled_monitor ()) g
            in
            (* instants 0-3 done: the window closing at instant 5 is open *)
            List.iteri (fun i inputs -> if i < 4 then ignore (Sim.step sim inputs))
              stream;
            let ck = K.of_json (K.to_json (K.capture ~system:"churn" sim)) in
            let m = sampled_monitor () in
            let r = K.resume ~monitor:m ck g in
            List.iteri
              (fun i inputs -> if i >= 4 then ignore (Sim.step r.K.r_sim inputs))
              stream;
            let records = Rc.records (M.recorder m) in
            Alcotest.(check (list int))
              (what ^ ": resumed records cover the suffix")
              (List.init (List.length stream - 4) (fun i -> i + 4))
              (List.map (fun r -> r.Rc.r_instant) records);
            expect_sampled ~what ~exact records)
          [ ("fast lane", None); ("supervised lane", Some S.Hold_last) ]);
    case "net_values after every step is that instant's fixed point" (fun () ->
        (* swapped buffers: the one handed out must never be the stale
           spare, on churned and unchurned instants alike *)
        let g = churn_net () in
        let stream = churn_stream g in
        let compiled = G.compile g in
        let n_blocks = Array.length compiled.G.c_blocks in
        List.iter
          (fun strategy ->
            List.iter
              (fun (what, telemetry, monitor) ->
                let sim = Sim.create ~strategy ?telemetry ?monitor g in
                List.iteri
                  (fun i inputs ->
                    let delay_values = Sim.delay_state sim in
                    ignore (Sim.step sim inputs);
                    (* the reference runs the same lane on a fresh buffer:
                       counted when the registry is on, fast otherwise *)
                    let fresh =
                      Fx.eval compiled ~inputs ~delay_values ~strategy
                        ~eval_counts:
                          (if telemetry = None then [||] else Array.make n_blocks 0)
                        ()
                    in
                    Alcotest.(check int)
                      (Printf.sprintf "%s %s: instant %d"
                         (Fx.strategy_name strategy) what i)
                      0
                      (count_changed (Sim.net_values sim) fresh.Fx.nets))
                  stream)
              [ ("monitor k=3", None, Some (sampled_monitor ()));
                ("registry", Some (R.create ()), None);
                ("registry + monitor", Some (R.create ()), Some (M.create ())) ])
          [ Fx.Scheduled; Fx.Worklist; Fx.Fused ]) ]

let suite =
  sketch_tests @ sketch_qcheck @ window_tests @ recorder_tests
  @ monitor_tests @ sim_tests @ churn_tests
