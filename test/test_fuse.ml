open Util
module D = Asr.Domain
module Dt = Asr.Data
module G = Asr.Graph
module B = Asr.Block
module S = Asr.Supervisor
module I = Asr.Inject
module F = Asr.Fuse
module Fx = Asr.Fixpoint
module R = Test_random_graphs

(* ---- reference graphs -------------------------------------------- *)

(* Small FIR: a fork/delay tap line with gain weights and an adder
   chain. Exercises the fused fast lane end to end: fork ports alias
   their source (the delay feed is served by a post-pass copyback),
   gains and adds collapse into chains. *)
let fir_graph taps =
  let g = G.create "fir-test" in
  let x = G.add_input g "x" in
  let src = ref (G.out_port x 0) in
  let taps_out = ref [] in
  for k = 0 to taps - 1 do
    let f = G.add_block g (B.fork 2) in
    G.connect g ~src:!src ~dst:(G.in_port f 0);
    let gn = G.add_block g (B.gain (k + 1)) in
    G.connect g ~src:(G.out_port f 0) ~dst:(G.in_port gn 0);
    taps_out := G.out_port gn 0 :: !taps_out;
    let d = G.add_delay g ~init:(D.int 0) in
    G.connect g ~src:(G.out_port f 1) ~dst:(G.in_port d 0);
    src := G.out_port d 0
  done;
  let gn = G.add_block g (B.gain 7) in
  G.connect g ~src:!src ~dst:(G.in_port gn 0);
  taps_out := G.out_port gn 0 :: !taps_out;
  let acc =
    List.fold_left
      (fun acc src ->
        match acc with
        | None -> Some src
        | Some a ->
            let add = G.add_block g B.add in
            G.connect g ~src:a ~dst:(G.in_port add 0);
            G.connect g ~src ~dst:(G.in_port add 1);
            Some (G.out_port add 0))
      None !taps_out
  in
  let y = G.add_output g "y" in
  G.connect g ~src:(Option.get acc) ~dst:(G.in_port y 0);
  g

(* A fork whose ports feed a mux: the mux reads slots directly, so
   those ports need residual stores at the fork's schedule position
   while the parity port resolves through the alias. *)
let mux_fork_graph () =
  let g = G.create "mux-fork" in
  let x = G.add_input g "x" in
  let f = G.add_block g (B.fork 3) in
  G.connect g ~src:(G.out_port x 0) ~dst:(G.in_port f 0);
  let parity =
    G.add_block g
      (B.map1 ~name:"parity" (function
        | Dt.Int v -> Dt.Bool (v mod 2 = 0)
        | _ -> Dt.Bool false))
  in
  G.connect g ~src:(G.out_port f 0) ~dst:(G.in_port parity 0);
  let neg = G.add_block g B.neg in
  G.connect g ~src:(G.out_port f 1) ~dst:(G.in_port neg 0);
  let m = G.add_block g B.mux in
  G.connect g ~src:(G.out_port parity 0) ~dst:(G.in_port m 0);
  G.connect g ~src:(G.out_port neg 0) ~dst:(G.in_port m 1);
  G.connect g ~src:(G.out_port f 2) ~dst:(G.in_port m 2);
  let y = G.add_output g "y" in
  G.connect g ~src:(G.out_port m 0) ~dst:(G.in_port y 0);
  g

(* Delay-free feedback resolved through a mux (Netgen's pattern): the
   SCC {mux, add} takes the bounded-iteration fallback inside the
   fused reaction. *)
let cyclic_graph () =
  let g = G.create "cyc-test" in
  let x = G.add_input g "x" in
  let parity =
    G.add_block g
      (B.map1 ~name:"parity" (function
        | Dt.Int v -> Dt.Bool (v mod 2 = 0)
        | _ -> Dt.Bool false))
  in
  G.connect g ~src:(G.out_port x 0) ~dst:(G.in_port parity 0);
  let m = G.add_block g B.mux in
  let a = G.add_block g B.add in
  G.connect g ~src:(G.out_port parity 0) ~dst:(G.in_port m 0);
  G.connect g ~src:(G.out_port x 0) ~dst:(G.in_port m 1);
  G.connect g ~src:(G.out_port a 0) ~dst:(G.in_port m 2);
  G.connect g ~src:(G.out_port x 0) ~dst:(G.in_port a 0);
  G.connect g ~src:(G.out_port m 0) ~dst:(G.in_port a 1);
  let y = G.add_output g "y" in
  G.connect g ~src:(G.out_port m 0) ~dst:(G.in_port y 0);
  g

(* Kernels that trap on data: [trip] (a [Block.map1]) raises whenever
   [trips] holds for its input, and the mux's select turns non-boolean
   on multiples of 4. Both compile to kernel steps, so on the supervised
   fused lane they run unguarded and a trap is replayed under
   [Supervisor.guard]. A delay feeds the sum back, so held and absent
   values persist across instants. *)
let trap_graph ~trips =
  let g = G.create "trap-kernels" in
  let x = G.add_input g "x" in
  let f = G.add_block g (B.fork 3) in
  G.connect g ~src:(G.out_port x 0) ~dst:(G.in_port f 0);
  let trip =
    G.add_block g
      (B.map1 ~name:"trip" (function
        | Dt.Int n when trips n -> failwith "trip: data-dependent trap"
        | Dt.Int n -> Dt.Int (2 * n)
        | v -> v))
  in
  G.connect g ~src:(G.out_port f 0) ~dst:(G.in_port trip 0);
  let sel =
    G.add_block g
      (B.map1 ~name:"sel" (function
        | Dt.Int n when n mod 4 = 0 -> Dt.Int n
        | Dt.Int n -> Dt.Bool (n mod 2 = 0)
        | v -> v))
  in
  G.connect g ~src:(G.out_port f 1) ~dst:(G.in_port sel 0);
  let ng = G.add_block g B.neg in
  G.connect g ~src:(G.out_port f 2) ~dst:(G.in_port ng 0);
  let tf = G.add_block g (B.fork 2) in
  G.connect g ~src:(G.out_port trip 0) ~dst:(G.in_port tf 0);
  let m = G.add_block g B.mux in
  G.connect g ~src:(G.out_port sel 0) ~dst:(G.in_port m 0);
  G.connect g ~src:(G.out_port tf 0) ~dst:(G.in_port m 1);
  G.connect g ~src:(G.out_port ng 0) ~dst:(G.in_port m 2);
  let a = G.add_block g B.add in
  G.connect g ~src:(G.out_port m 0) ~dst:(G.in_port a 0);
  let d = G.add_delay g ~init:(D.int 0) in
  G.connect g ~src:(G.out_port d 0) ~dst:(G.in_port a 1);
  let af = G.add_block g (B.fork 2) in
  G.connect g ~src:(G.out_port a 0) ~dst:(G.in_port af 0);
  G.connect g ~src:(G.out_port af 0) ~dst:(G.in_port d 0);
  let y = G.add_output g "y" in
  G.connect g ~src:(G.out_port af 1) ~dst:(G.in_port y 0);
  let t = G.add_output g "t" in
  G.connect g ~src:(G.out_port tf 1) ~dst:(G.in_port t 0);
  g

let count_stream n = List.init n (fun t -> [ ("x", D.int (t + 1)) ])

let int_stream n = List.init n (fun t -> [ ("x", D.int (3 * t - 7)) ])

let run_strategy ?strategy g stream =
  let sim = Asr.Simulate.create ?strategy g in
  List.map (Asr.Simulate.step sim) stream

let check_differential name g stream =
  let chaotic = run_strategy ~strategy:Fx.Chaotic g stream in
  let fused = run_strategy ~strategy:Fx.Fused g stream in
  Alcotest.(check bool) name true (chaotic = fused)

(* ---- supervised runners ------------------------------------------ *)

type 'a outcome = Finished of 'a * int | Fatal_at of int * int

let run_injected ~strategy ~policy specs g stream =
  let inj = I.make specs in
  let gi = I.instrument inj g in
  let sup = S.create ~policy () in
  let sim = Asr.Simulate.create ~strategy ~supervisor:sup gi in
  match
    List.map
      (fun inputs ->
        let out = Asr.Simulate.step sim inputs in
        I.tick inj;
        out)
      stream
  with
  | trace -> Finished (trace, List.length (S.faults sup))
  | exception S.Fatal f -> Fatal_at (f.S.f_instant, f.S.f_block)

(* Outputs, rendered fault log, quarantine set, fatal (instant, block)
   and the supervisor's checkpoint state after every instant of one
   supervised run. *)
let run_supervised ~strategy ~policy ?(escalate_after = 3) g stream =
  let sup = S.create ~policy ~escalate_after () in
  let sim = Asr.Simulate.create ~strategy ~supervisor:sup g in
  let outs = ref [] and states = ref [] in
  let fatal =
    match
      List.iter
        (fun i ->
          outs := Asr.Simulate.step sim i :: !outs;
          states := Telemetry.Json.to_string (S.state_json sup) :: !states)
        stream
    with
    | () -> None
    | exception S.Fatal f -> Some (f.S.f_instant, f.S.f_block)
  in
  ( List.rev !outs,
    List.map S.fault_to_string (S.faults sup),
    S.quarantined_blocks sup,
    fatal,
    List.rev !states )

let policies = [ S.Hold_last; S.Absent; S.Retry 2; S.Fail_fast ]

(* The same int kernel, as a plain data kernel that traps whenever its
   operands sum to a multiple of 3: still a kernel step on the fused
   lane, so its faults take the replay path. *)
let trapping b =
  let trips = function Dt.Int n -> n mod 3 = 0 | _ -> false in
  match b.B.kernel with
  | B.IMap1 (_, f) ->
      B.map1 ~name:b.B.name (fun x ->
          if trips x then failwith "trap: multiple of 3" else f x)
  | B.IMap2 (_, f) ->
      B.map2 ~name:b.B.name (fun x y ->
          match (x, y) with
          | Dt.Int a, Dt.Int c when (a + c) mod 3 = 0 ->
              failwith "trap: sum is a multiple of 3"
          | _ -> f x y)
  | _ -> b

let check_lanes_agree ?escalate_after name g stream =
  List.iter
    (fun policy ->
      let label = Printf.sprintf "%s, %s" name (S.policy_name policy) in
      let ((_, log, _, _, _) as fused) =
        run_supervised ~strategy:Fx.Fused ~policy ?escalate_after g stream
      in
      let sched =
        run_supervised ~strategy:Fx.Scheduled ~policy ?escalate_after g stream
      in
      Alcotest.(check bool) (label ^ ": faults fired") true (log <> []);
      Alcotest.(check bool) (label ^ ": fused = scheduled") true (fused = sched))
    policies

(* ---- suite ------------------------------------------------------- *)

let suite =
  [ case "fused = chaotic on the FIR tap line (alias + copyback)" (fun () ->
        check_differential "fir" (fir_graph 6) (int_stream 12));
    case "fused = chaotic when a mux reads fork ports (residual stores)"
      (fun () -> check_differential "mux-fork" (mux_fork_graph ()) (int_stream 10));
    case "fused = chaotic through the cyclic SCC fallback" (fun () ->
        check_differential "cyclic" (cyclic_graph ()) (int_stream 10);
        let plan = F.compile (G.compile (cyclic_graph ())) in
        Alcotest.(check int) "SCC blocks" 2 plan.F.f_n_cyclic);
    case "fused = chaotic on non-int data (int-lane fallback)" (fun () ->
        let g = G.create "real-chain" in
        let x = G.add_input g "x" in
        let gn = G.add_block g (B.gain 2) in
        let ng = G.add_block g B.neg in
        let a = G.add_block g B.add in
        G.connect g ~src:(G.out_port x 0) ~dst:(G.in_port gn 0);
        G.connect g ~src:(G.out_port gn 0) ~dst:(G.in_port ng 0);
        G.connect g ~src:(G.out_port ng 0) ~dst:(G.in_port a 0);
        G.connect g ~src:(G.out_port x 0) ~dst:(G.in_port a 1);
        let y = G.add_output g "y" in
        G.connect g ~src:(G.out_port a 0) ~dst:(G.in_port y 0);
        let stream =
          List.init 8 (fun t ->
              [ ( "x",
                  if t mod 2 = 0 then D.int t
                  else D.def (Dt.Real (0.5 +. float_of_int t)) ) ])
        in
        check_differential "real" g stream);
    case "constant folding: template, stats and constant_nets" (fun () ->
        let g = G.create "fold" in
        let c = G.add_block g (B.const ~name:"k5" (Dt.Int 5)) in
        let gn = G.add_block g (B.gain 3) in
        G.connect g ~src:(G.out_port c 0) ~dst:(G.in_port gn 0);
        let x = G.add_input g "x" in
        let a = G.add_block g B.add in
        G.connect g ~src:(G.out_port x 0) ~dst:(G.in_port a 0);
        G.connect g ~src:(G.out_port gn 0) ~dst:(G.in_port a 1);
        let y = G.add_output g "y" in
        G.connect g ~src:(G.out_port a 0) ~dst:(G.in_port y 0);
        let plan = F.compile (G.compile g) in
        Alcotest.(check int) "folded" 2 plan.F.f_n_folded;
        Alcotest.(check bool) "constant 15 visible" true
          (List.exists (fun (_, v) -> v = D.int 15) (F.constant_nets plan));
        Alcotest.(check bool) "describe mentions folding" true
          (contains ~substring:"2 folded" (F.describe plan));
        let outs = run_strategy ~strategy:Fx.Fused g (int_stream 5) in
        Alcotest.(check bool) "y = x + 15" true
          (List.for_all2
             (fun t out -> out = [ ("y", D.int ((3 * t - 7) + 15)) ])
             (List.init 5 Fun.id) outs));
    case "a fold that would trap is declined, then contained at run time"
      (fun () ->
        let g = G.create "declined" in
        let c = G.add_block g (B.const ~name:"kt" (Dt.Bool true)) in
        let gn = G.add_block g (B.gain 2) in
        G.connect g ~src:(G.out_port c 0) ~dst:(G.in_port gn 0);
        let y = G.add_output g "y" in
        G.connect g ~src:(G.out_port gn 0) ~dst:(G.in_port y 0);
        let plan = F.compile (G.compile g) in
        Alcotest.(check int) "only the const folds" 1 plan.F.f_n_folded;
        let sup = S.create ~policy:S.Absent () in
        let sim = Asr.Simulate.create ~strategy:Fx.Fused ~supervisor:sup g in
        let out = Asr.Simulate.step sim [] in
        Alcotest.(check bool) "absent output" true (out = [ ("y", D.Bottom) ]);
        Alcotest.(check bool) "fault contained" true (S.faults sup <> []));
    case "eval counters agree between fused and scheduled" (fun () ->
        let c = G.compile (fir_graph 5) in
        let delays = Array.map (fun (_, _, init) -> init) c.G.c_delays in
        let inputs = [ ("x", D.int 9) ] in
        let count strategy =
          let counts = Array.make (Array.length c.G.c_blocks) 0 in
          let r =
            Fx.eval c ~inputs ~delay_values:delays ~strategy
              ~eval_counts:counts ()
          in
          (counts, r.Fx.block_evaluations)
        in
        let fused, fused_total = count Fx.Fused in
        let sched, _ = count Fx.Scheduled in
        Alcotest.(check bool) "per-block counts equal" true (fused = sched);
        let fast = Fx.eval c ~inputs ~delay_values:delays ~strategy:Fx.Fused () in
        Alcotest.(check int) "fast lane accounts the same evaluations"
          fused_total fast.Fx.block_evaluations);
    case "plan/graph mismatch is rejected" (fun () ->
        let plan = F.compile (G.compile (mux_fork_graph ())) in
        let c = G.compile (fir_graph 3) in
        let delays = Array.map (fun (_, _, init) -> init) c.G.c_delays in
        match
          Fx.eval c ~inputs:[ ("x", D.int 1) ] ~delay_values:delays
            ~strategy:Fx.Fused ~fuse:plan ()
        with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    case "Simulate exposes the plan only under the fused strategy" (fun () ->
        let fused = Asr.Simulate.create ~strategy:Fx.Fused (fir_graph 3) in
        let sched = Asr.Simulate.create ~strategy:Fx.Scheduled (fir_graph 3) in
        Alcotest.(check bool) "some plan" true
          (Asr.Simulate.fuse_plan fused <> None);
        Alcotest.(check bool) "no plan" true
          (Asr.Simulate.fuse_plan sched = None));
    case "strategy name round-trips through of_string" (fun () ->
        Alcotest.(check bool) "fused" true
          (Fx.strategy_of_string (Fx.strategy_name Fx.Fused) = Some Fx.Fused));
    case "netgen workloads: fused = chaotic, evals no worse than scheduled"
      (fun () ->
        List.iter
          (fun seed ->
            let g =
              Workloads.Netgen.generate ~inputs:2 ~delays:3 ~cyclic_ratio:0.1
                ~seed ~depth:6 ~width:8 ()
            in
            let stream = Workloads.Netgen.stimulus g ~instants:10 in
            let run strategy =
              let sim = Asr.Simulate.create ~strategy g in
              let trace = List.map (Asr.Simulate.step sim) stream in
              (trace, Asr.Simulate.block_evaluations sim)
            in
            let chaotic, _ = run Fx.Chaotic in
            let fused, fused_evals = run Fx.Fused in
            let _, sched_evals = run Fx.Scheduled in
            Alcotest.(check bool)
              (Printf.sprintf "seed %d equal" seed)
              true (chaotic = fused);
            Alcotest.(check bool)
              (Printf.sprintf "seed %d evals" seed)
              true
              (fused_evals <= sched_evals))
          [ 1; 7; 42 ]);
    case "interval hints unlock elision at call-indexed sites" (fun () ->
        let checked =
          check_src
            {|class P {
  int src(int t) { return t; }
  void f(int p) {
    int[] a = new int[8];
    a[src(p)] = 1;
  }
}|}
        in
        let bare = Analysis.Elide.plan checked in
        let hinted =
          Analysis.Elide.plan
            ~hints:(fun name _ ->
              if name = "src" then
                Some { Analysis.Interval.lo = 0; hi = 7 }
              else None)
            checked
        in
        Alcotest.(check int) "no elision without the hint" 0
          (Hashtbl.length bare);
        Alcotest.(check int) "hinted site elides" 1 (Hashtbl.length hinted));
    case "imap kernels agree with their data functions on ints" (fun () ->
        List.iter
          (fun b ->
            match b.B.kernel with
            | B.IMap2 (fi, f) ->
                List.iter
                  (fun (x, y) ->
                    Alcotest.(check bool)
                      (Printf.sprintf "%s %d %d" b.B.name x y)
                      true
                      (f (Dt.Int x) (Dt.Int y) = Dt.Int (fi x y)))
                  [ (0, 0); (3, -4); (-17, 5); (1000, 999) ]
            | B.IMap1 (fi, f) ->
                List.iter
                  (fun x ->
                    Alcotest.(check bool)
                      (Printf.sprintf "%s %d" b.B.name x)
                      true
                      (f (Dt.Int x) = Dt.Int (fi x)))
                  [ 0; 3; -17; 1000 ]
            | _ -> Alcotest.failf "%s lost its int specialization" b.B.name)
          [ B.add; B.sub; B.mul; B.gain 5; B.neg ]);
    case "first-divergence localizer pinpoints a broken fused plan" (fun () ->
        (* Failing-first demo: corrupt one mid-net block by +1 on every
           int output, then let the localizer find it. The divergence
           must name exactly the corrupted block at the first instant it
           reacts — not some downstream net that also changed. *)
        let g =
          Workloads.Netgen.generate ~inputs:3 ~delays:2 ~seed:77 ~depth:4
            ~width:5 ()
        in
        let stream = Workloads.Netgen.stimulus g ~instants:6 in
        let target = 5 in
        let broken =
          G.map_blocks g (fun i b ->
              if i <> target then b
              else
                B.make ~name:b.B.name ~n_in:b.B.n_in ~n_out:b.B.n_out
                  (fun ins ->
                    Array.map
                      (function
                        | D.Def (Dt.Int v) -> D.int (v + 1)
                        | v -> v)
                      (b.B.fn ins)))
        in
        let a = Asr.Trace.record ~strategy:Fx.Fused g stream in
        let b = Asr.Trace.record ~strategy:Fx.Fused broken stream in
        match Asr.Trace.first_divergence a b with
        | None -> Alcotest.fail "corrupted plan should diverge"
        | Some d ->
            Alcotest.(check int) "localized block" target d.Asr.Trace.d_block;
            Alcotest.(check int) "first reacting instant" 0
              d.Asr.Trace.d_instant;
            Alcotest.(check bool) "slices attached" true
              (d.Asr.Trace.d_slice_a <> None && d.Asr.Trace.d_slice_b <> None));
    qcase ~count:150 "random systems: fused = chaotic" R.arbitrary_spec
      (fun spec ->
        let stream = R.stimuli spec in
        let chaotic = R.run_graph (R.build spec) stream in
        let sim = Asr.Simulate.create ~strategy:Fx.Fused (R.build spec) in
        let fused = List.map (Asr.Simulate.step sim) stream in
        chaotic = fused
        ||
        (* localize the earliest divergent (instant, block, net) so the
           counterexample names the culprit, not just the seed *)
        let a = Asr.Trace.record ~strategy:Fx.Chaotic (R.build spec) stream in
        let b = Asr.Trace.record ~strategy:Fx.Fused (R.build spec) stream in
        match Asr.Trace.first_divergence a b with
        | Some d ->
            QCheck.Test.fail_reportf "chaotic vs fused: %s"
              (Asr.Trace.divergence_to_string d)
        | None ->
            QCheck.Test.fail_reportf
              "chaotic vs fused: runs differ but recorded fixed points agree");
    qcase ~count:50
      "random systems: supervised fused = supervised chaotic under faults"
      R.arbitrary_spec
      (fun spec ->
        let g () = R.build spec in
        let stream = R.stimuli spec in
        let specs =
          I.plan ~seed:spec.R.sp_seed ~n_blocks:(G.block_count (g ()))
            ~instants:(max 1 (List.length stream))
            ~n_faults:2 ()
        in
        let contained =
          List.for_all
            (fun policy ->
              run_injected ~strategy:Fx.Chaotic ~policy specs (g ()) stream
              = run_injected ~strategy:Fx.Fused ~policy specs (g ()) stream)
            [ S.Hold_last; S.Absent; S.Retry 1 ]
        in
        (* Fail_fast aborts on the first faulty application, and with two
           faulty blocks in one instant "first" depends on evaluation
           order: the fatal instant is strategy-independent, the block
           identity is only pinned by a fixed order (the schedule, which
           the fused plan follows). *)
        let fatal =
          match
            ( run_injected ~strategy:Fx.Chaotic ~policy:S.Fail_fast specs
                (g ()) stream,
              run_injected ~strategy:Fx.Scheduled ~policy:S.Fail_fast specs
                (g ()) stream,
              run_injected ~strategy:Fx.Fused ~policy:S.Fail_fast specs (g ())
                stream )
          with
          | Fatal_at (ic, _), (Fatal_at (is, _) as s), (Fatal_at (i, _) as f)
            ->
              ic = i && s = f && is = i
          | (Finished _ as c), s, f -> c = s && s = f
          | _ -> false
        in
        contained && fatal);
    qcase ~count:50
      "random systems: first-application glitches, fused = scheduled"
      R.arbitrary_spec
      (fun spec ->
        (* first_only faults are sensitive to the number of applications
           per instant, so the oracle is the static schedule (also one
           application per acyclic block) rather than chaotic *)
        let g () = R.build spec in
        let stream = R.stimuli spec in
        let specs =
          I.plan ~seed:(spec.R.sp_seed + 1) ~n_blocks:(G.block_count (g ()))
            ~instants:(max 1 (List.length stream))
            ~n_faults:2 ~first_only:true ()
        in
        List.for_all
          (fun policy ->
            run_injected ~strategy:Fx.Scheduled ~policy specs (g ()) stream
            = run_injected ~strategy:Fx.Fused ~policy specs (g ()) stream)
          [ S.Hold_last; S.Retry 2 ]);
    case "kernel traps replay under the guard: fused = scheduled" (fun () ->
        let g = trap_graph ~trips:(fun n -> n mod 3 = 0) in
        let c = G.compile g in
        let plan = F.compile c in
        List.iter
          (fun name ->
            Alcotest.(check bool) (name ^ " is a kernel step") true
              (Array.exists
                 (function
                   | F.Step (bi, _) ->
                       let b, _, _ = c.G.c_blocks.(bi) in
                       b.B.name = name
                   | F.Generic _ | F.Iterate _ -> false)
                 plan.F.f_ops))
          [ "trip"; "sel"; "mux" ];
        check_lanes_agree "map1 trap + non-boolean select" g (count_stream 14);
        let _, log, _, _, _ =
          run_supervised ~strategy:Fx.Fused ~policy:(S.Retry 2) g
            (count_stream 14)
        in
        Alcotest.(check bool) "retries logged" true
          (List.exists (contains ~substring:"after 2 retries") log);
        Alcotest.(check bool) "mux select contained" true
          (List.exists (contains ~substring:"non-boolean select") log));
    case "kernel fault streak escalates to quarantine on the fused lane"
      (fun () ->
        let g = trap_graph ~trips:(fun n -> n >= 5) in
        let stream = count_stream 12 in
        check_lanes_agree ~escalate_after:2 "streak" g stream;
        let outs, log, quarantined, _, _ =
          run_supervised ~strategy:Fx.Fused ~policy:S.Hold_last
            ~escalate_after:2 g stream
        in
        (* trip last succeeded on x = 4; every later instant, contained
           and then quarantined, holds that output *)
        List.iteri
          (fun t out ->
            if t >= 4 then
              Alcotest.(check bool)
                (Printf.sprintf "instant %d holds trip's last good output" t)
                true
                (List.assoc "t" out = D.int 8))
          outs;
        Alcotest.(check int) "trip quarantined" 1 (List.length quarantined);
        Alcotest.(check bool) "escalation logged" true
          (List.exists (contains ~substring:"escalated") log));
    case "mid-quarantine checkpoint resumes on the fused kernel lane"
      (fun () ->
        let g = trap_graph ~trips:(fun n -> n >= 5) in
        let stream = count_stream 14 in
        let make () =
          let sup = S.create ~policy:S.Hold_last ~escalate_after:2 () in
          (sup, Asr.Simulate.create ~strategy:Fx.Fused ~supervisor:sup g)
        in
        let sup, sim = make () in
        let at = 8 in
        let ck = ref None in
        let outs =
          List.mapi
            (fun i inputs ->
              if i = at then ck := Some (Asr.Checkpoint.capture ~system:"t" sim);
              Asr.Simulate.step sim inputs)
            stream
        in
        Alcotest.(check bool) "captured mid-quarantine" true
          (S.quarantined_blocks sup <> []);
        let ck =
          Asr.Checkpoint.of_json (Asr.Checkpoint.to_json (Option.get !ck))
        in
        let r = Asr.Checkpoint.resume ck g in
        Alcotest.(check bool) "resumed supervisor is quarantined" true
          (S.quarantined_blocks (Option.get r.Asr.Checkpoint.r_supervisor)
          <> []);
        let routs =
          List.map (Asr.Simulate.step r.Asr.Checkpoint.r_sim)
            (List.filteri (fun i _ -> i >= at) stream)
        in
        Alcotest.(check bool) "suffix outputs identical" true
          (routs = List.filteri (fun i _ -> i >= at) outs);
        Alcotest.(check bool) "final checkpoints identical" true
          (Asr.Checkpoint.equal
             (Asr.Checkpoint.capture ~system:"t" sim)
             (Asr.Checkpoint.capture ~system:"t" r.Asr.Checkpoint.r_sim)));
    case "a non-monotone opaque block commits its fixed-point outputs"
      (fun () ->
        (* Under Chaotic, "flicker" is applied twice an instant: it
           answers its input times ten when the input is new and ⊥ when
           it repeats, and traps at x = 2. The lub keeps the defined
           value in its output net, and committing from the fixed point
           commits that value (a last-application staging would have
           committed ⊥), so instant 1 holds 10. *)
        let seen = ref None and apps = ref 0 in
        let flicker =
          B.make ~name:"flicker" ~n_in:1 ~n_out:1 (fun ins ->
              incr apps;
              match ins.(0) with
              | D.Def (Dt.Int 2) -> failwith "flicker: trap"
              | D.Def (Dt.Int n) when !seen <> Some n ->
                  seen := Some n;
                  [| D.int (10 * n) |]
              | _ -> [| D.Bottom |])
        in
        let g = G.create "flicker" in
        let x = G.add_input g "x" in
        let b = G.add_block g flicker in
        G.connect g ~src:(G.out_port x 0) ~dst:(G.in_port b 0);
        let y = G.add_output g "y" in
        G.connect g ~src:(G.out_port b 0) ~dst:(G.in_port y 0);
        let sup = S.create ~policy:S.Hold_last () in
        let sim = Asr.Simulate.create ~strategy:Fx.Chaotic ~supervisor:sup g in
        let committed () =
          match Telemetry.Json.member "committed" (S.state_json sup) with
          | Some j -> Telemetry.Json.to_string j
          | None -> Alcotest.fail "no committed outputs"
        in
        let expect_10 =
          Telemetry.Json.(to_string (List [ List [ Asr.Codec.value_json (D.int 10) ] ]))
        in
        Alcotest.(check bool) "instant 0 outputs 10" true
          (Asr.Simulate.step sim [ ("x", D.int 1) ] = [ ("y", D.int 10) ]);
        Alcotest.(check bool) "re-applied, last answer ⊥" true (!apps >= 2);
        Alcotest.(check string) "instant 0 commits 10" expect_10 (committed ());
        Alcotest.(check bool) "instant 1 holds 10" true
          (Asr.Simulate.step sim [ ("x", D.int 2) ] = [ ("y", D.int 10) ]);
        Alcotest.(check int) "one fault" 1 (S.fault_count sup);
        Alcotest.(check string) "still committed" expect_10 (committed ()));
    case "single-buffer evaluation commits like the simulator" (fun () ->
        (* Simulate and a standalone caller that reuses one net buffer
           must commit the same outputs, instant by instant. *)
        let g = trap_graph ~trips:(fun n -> n mod 3 = 0 || n >= 11) in
        let stream = count_stream 14 in
        let sup_a = S.create ~policy:S.Hold_last ~escalate_after:2 () in
        let sim = Asr.Simulate.create ~strategy:Fx.Fused ~supervisor:sup_a g in
        let sup_b = S.create ~policy:S.Hold_last ~escalate_after:2 () in
        let c = G.compile g in
        let plan = F.compile c in
        let nets = Array.make c.G.n_nets D.Bottom in
        let delays = ref (Array.map (fun (_, _, init) -> init) c.G.c_delays) in
        List.iteri
          (fun t inputs ->
            ignore (Asr.Simulate.step sim inputs);
            let r =
              Fx.eval c ~inputs ~delay_values:!delays ~strategy:Fx.Fused
                ~fuse:plan ~nets ~supervisor:sup_b ()
            in
            delays := Fx.delay_next c r;
            Alcotest.(check string)
              (Printf.sprintf "instant %d supervisor state" t)
              (Telemetry.Json.to_string (S.state_json sup_a))
              (Telemetry.Json.to_string (S.state_json sup_b)))
          stream);
    case "supervised fused allocates within 1.25x of plain fused" (fun () ->
        (* The kernel lane allocates only the values it stores: boxing
           of the nets plain fused keeps in chain locals. Any
           per-application allocation (a closure, an output array,
           staging) adds words per block and breaks the bound. *)
        let g =
          Workloads.Netgen.generate ~inputs:4 ~delays:4 ~cyclic_ratio:0.04
            ~seed:1271 ~depth:40 ~width:25 ()
        in
        Alcotest.(check bool) "about 10^3 blocks" true
          (G.block_count g >= 1000);
        let stream = Workloads.Netgen.stimulus g ~instants:40 in
        let words_per_instant ?supervisor () =
          let sim = Asr.Simulate.create ~strategy:Fx.Fused ?supervisor g in
          List.iter (fun i -> ignore (Asr.Simulate.step sim i)) stream;
          let w0 = Gc.minor_words () in
          List.iter (fun i -> ignore (Asr.Simulate.step sim i)) stream;
          (Gc.minor_words () -. w0) /. float_of_int (List.length stream)
        in
        let plain = words_per_instant () in
        let supervised = words_per_instant ~supervisor:(S.create ()) () in
        Alcotest.(check bool)
          (Printf.sprintf "%.0f words supervised vs %.0f plain" supervised
             plain)
          true
          (supervised <= 1.25 *. plain));
    qcase ~count:60
      "random systems: kernel traps replay, supervised fused = scheduled"
      R.arbitrary_spec
      (fun spec ->
        (* every other gain/add traps on data, so faults, streaks and
           quarantines land on the kernel lane's replay path; outputs,
           fault logs, fatal points and the committed state must match
           the schedule's guarded applications instant by instant *)
        let g =
          G.map_blocks (R.build spec) (fun i b ->
              if i mod 2 = 0 then trapping b else b)
        in
        let stream = R.stimuli spec in
        List.for_all
          (fun policy ->
            run_supervised ~strategy:Fx.Fused ~policy ~escalate_after:2 g
              stream
            = run_supervised ~strategy:Fx.Scheduled ~policy ~escalate_after:2
                g stream)
          policies) ]
