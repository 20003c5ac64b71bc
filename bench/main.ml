(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see EXPERIMENTS.md for the mapping and the recorded
   paper-vs-measured values).

   Usage:  main.exe [table1|fig1|...|fig8|ablation|bechamel|all]
           main.exe table1 --small      (reduced image for quick runs)

   Times are reported two ways: deterministic cost-model cycles scaled
   to seconds at the paper's 150 MHz clock, and measured wall-clock
   seconds of this harness. *)

let clock_hz = 150e6

let wall f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

let modeled cycles = float_of_int cycles /. clock_hz

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

type cell = {
  c_init_cycles : int;
  c_react_cycles : int;
  c_init_wall : float;
  c_react_wall : float;
}

(* 64 KiB young space, in the JDK-1.1 mould: reactive allocation beyond
   it triggers a modeled stop-the-world pause. The restricted codec never
   allocates reactively, so only the unrestricted variant pays. *)
let gc_threshold = 16_384

let run_codec ~engine ~source ~image ~reactions =
  let checked = Mj.Typecheck.check_source ~file:"jpeg.mj" source in
  let (elab, init_wall) =
    wall (fun () ->
        Javatime.Elaborate.elaborate ~engine ~enforce_policy:false
          ~bounded_memory:false ~gc_threshold checked ~cls:"JpegCodec")
  in
  let react () =
    match Javatime.Elaborate.react elab [| Asr.Domain.int_array image |] with
    | [| Asr.Domain.Def (Asr.Data.Int_array reconstructed);
         Asr.Domain.Def (Asr.Data.Int stream_len) |] ->
        (reconstructed, stream_len)
    | _ -> failwith "unexpected codec outputs"
  in
  (* warm once (JIT translation happens on first call), then measure *)
  let first, _ = wall react in
  let cycles_before = Javatime.Elaborate.total_cycles elab in
  let (_, react_wall) =
    wall (fun () ->
        for _ = 1 to reactions do
          ignore (react ())
        done)
  in
  let react_cycles =
    (Javatime.Elaborate.total_cycles elab - cycles_before) / reactions
  in
  ( { c_init_cycles = Javatime.Elaborate.init_cycles elab;
      c_react_cycles = react_cycles;
      c_init_wall = init_wall;
      c_react_wall = react_wall /. float_of_int reactions },
    first )

let program_size source classes =
  let checked = Mj.Typecheck.check_source ~file:"jpeg.mj" source in
  let image = Mj_bytecode.Compile.compile checked in
  Mj_bytecode.Classfile.program_size image ~classes

let table1 ~small () =
  let width = if small then 48 else Workloads.Images.paper_width in
  let height = if small then 40 else Workloads.Images.paper_height in
  let reactions = if small then 2 else 1 in
  let image = Workloads.Images.synthetic ~width ~height in
  let unrestricted = Workloads.Jpeg_mj.unrestricted_source ~width ~height () in
  let restricted = Workloads.Jpeg_mj.restricted_source ~width ~height () in
  Printf.printf
    "Table 1: unrestricted vs restricted JPEG (%dx%d image, %d reaction(s))\n\n"
    width height reactions;
  let engines =
    [ ("MJVM interpreter (cf. Sun JDK 1.1.4)", Javatime.Elaborate.Engine_vm);
      ("closure backend  (cf. Cafe JIT)", Javatime.Elaborate.Engine_jit) ]
  in
  let results =
    List.map
      (fun (label, engine) ->
        let (u, out_u) = run_codec ~engine ~source:unrestricted ~image ~reactions in
        let (r, out_r) = run_codec ~engine ~source:restricted ~image ~reactions in
        if out_u <> out_r then
          print_endline "WARNING: variants disagree on outputs!";
        (label, u, r))
      engines
  in
  Printf.printf
    "%-38s %14s %14s %12s\n" "" "unrestricted" "restricted" "restr/unr";
  List.iter
    (fun (label, u, r) ->
      Printf.printf "%s\n" label;
      let row name uv rv =
        Printf.printf "  %-36s %14.3f %14.3f %12.2f\n" name uv rv (rv /. uv)
      in
      row "initialization, modeled s" (modeled u.c_init_cycles)
        (modeled r.c_init_cycles);
      row "reaction, modeled s" (modeled u.c_react_cycles)
        (modeled r.c_react_cycles);
      row "initialization, wall s" u.c_init_wall r.c_init_wall;
      row "reaction, wall s" u.c_react_wall r.c_react_wall)
    results;
  let size_u =
    program_size unrestricted Workloads.Jpeg_mj.unrestricted_classes
  in
  let size_r = program_size restricted Workloads.Jpeg_mj.restricted_classes in
  Printf.printf "%-38s %14d %14d %12.2f\n" "program size (bytes)" size_u size_r
    (float_of_int size_r /. float_of_int size_u);
  print_newline ();
  print_endline "paper reported (130x135, 150 MHz Pentium):";
  print_endline "  JDK:  init 2.36 -> 5.12 s (2.2x);  reaction 39.5 -> 20.6 s (0.52x)";
  print_endline "  JIT:  init 0.56 -> 0.93 s (1.7x);  reaction  6.9 ->  3.3 s (0.47x)";
  print_endline "  size: 57.5k -> 58.1k (1.01x)"

(* ------------------------------------------------------------------ *)
(* Fig. 1: policy of use carves S' out of S                            *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  print_endline "Fig. 1: the ASR policy of use (restrictions defining S')";
  print_newline ();
  List.iter
    (fun rule ->
      Printf.printf "  %-24s %s\n" rule.Policy.Rule.id rule.Policy.Rule.title)
    Policy.Asr_policy.rules;
  print_newline ();
  print_endline "membership of the bundled designs:";
  let verdict name source =
    let checked = Mj.Typecheck.check_source ~file:(name ^ ".mj") source in
    let violations = Policy.Asr_policy.check checked in
    let blocking =
      List.length (List.filter Policy.Rule.is_blocking violations)
    in
    Printf.printf "  %-28s %s (%d violation(s))\n" name
      (if blocking = 0 then "in S' (compliant)" else "in S \\ S'")
      (List.length violations)
  in
  verdict "jpeg-unrestricted"
    (Workloads.Jpeg_mj.unrestricted_source ~width:48 ~height:40 ());
  verdict "jpeg-restricted"
    (Workloads.Jpeg_mj.restricted_source ~width:48 ~height:40 ());
  verdict "fir-unrestricted" Workloads.Fir_mj.unrestricted_source;
  verdict "traffic-light" Workloads.Traffic_mj.source;
  verdict "fig8-threaded" Workloads.Fig8_mj.threaded_source;
  verdict "fig8-refined-blocks" Workloads.Fig8_mj.refined_blocks_source

(* ------------------------------------------------------------------ *)
(* Fig. 2: SFR moves P into S'                                         *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  print_endline "Fig. 2: successive formal refinement traces";
  print_newline ();
  let trace name source =
    Printf.printf "-- %s --\n" name;
    let outcome =
      Javatime.Engine.refine (Mj.Parser.parse_program ~file:(name ^ ".mj") source)
    in
    Javatime.Engine.pp_trace Format.std_formatter outcome;
    Format.print_newline ()
  in
  trace "fir" Workloads.Fir_mj.unrestricted_source;
  trace "jpeg"
    (Workloads.Jpeg_mj.unrestricted_source ~width:48 ~height:40 ())

(* ------------------------------------------------------------------ *)
(* Fig. 3: an ASR system                                               *)
(* ------------------------------------------------------------------ *)

let fig3_graph () =
  (* Two inputs feed blocks A and B; C combines them; C's output both
     leaves the system and re-enters B through a delay element — the
     topology sketched in the paper's Fig. 3. *)
  let g = Asr.Graph.create "fig3" in
  let in1 = Asr.Graph.add_input g "i1" in
  let in2 = Asr.Graph.add_input g "i2" in
  let block_a = Asr.Graph.add_block g (Asr.Block.gain 2) in
  let block_b = Asr.Graph.add_block g Asr.Block.add in
  let block_c = Asr.Graph.add_block g Asr.Block.add in
  let fork = Asr.Graph.add_block g (Asr.Block.fork 2) in
  let delay = Asr.Graph.add_delay g ~init:(Asr.Domain.int 0) in
  let out = Asr.Graph.add_output g "o" in
  Asr.Graph.connect g ~src:(Asr.Graph.out_port in1 0) ~dst:(Asr.Graph.in_port block_a 0);
  Asr.Graph.connect g ~src:(Asr.Graph.out_port in2 0) ~dst:(Asr.Graph.in_port block_b 0);
  Asr.Graph.connect g ~src:(Asr.Graph.out_port delay 0) ~dst:(Asr.Graph.in_port block_b 1);
  Asr.Graph.connect g ~src:(Asr.Graph.out_port block_a 0) ~dst:(Asr.Graph.in_port block_c 0);
  Asr.Graph.connect g ~src:(Asr.Graph.out_port block_b 0) ~dst:(Asr.Graph.in_port block_c 1);
  Asr.Graph.connect g ~src:(Asr.Graph.out_port block_c 0) ~dst:(Asr.Graph.in_port fork 0);
  Asr.Graph.connect g ~src:(Asr.Graph.out_port fork 0) ~dst:(Asr.Graph.in_port out 0);
  Asr.Graph.connect g ~src:(Asr.Graph.out_port fork 1) ~dst:(Asr.Graph.in_port delay 0);
  g

let fig3 () =
  print_endline "Fig. 3: an ASR system (blocks, channels, one delay element)";
  print_newline ();
  let g = fig3_graph () in
  print_string (Asr.Render.to_string g);
  print_newline ();
  print_endline "graphviz form (render with dot -Tpng):";
  print_string (Asr.Render.to_dot g);
  print_newline ();
  let sim = Asr.Simulate.create g in
  print_endline "three instants of reactive execution:";
  List.iter
    (fun (i1, i2) ->
      match
        Asr.Simulate.step sim
          [ ("i1", Asr.Domain.int i1); ("i2", Asr.Domain.int i2) ]
      with
      | [ ("o", v) ] ->
          Printf.printf "  i1=%d i2=%d  ->  o=%s\n" i1 i2 (Asr.Domain.to_string v)
      | _ -> assert false)
    [ (1, 1); (2, 0); (0, 3) ]

(* ------------------------------------------------------------------ *)
(* Fig. 4: hierarchical instants                                       *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  print_endline "Fig. 4: hierarchical nesting of instants";
  print_newline ();
  (* MJ side: a design opens sub-instants with JTime. *)
  let source =
    {|class Protocol extends ASR {
  Protocol() { declarePorts(1, 1); }
  public void run() {
    JTime.enterInstant("message transfer");
    JTime.enterInstant("handshake");
    JTime.exitInstant();
    JTime.enterInstant("payload");
    JTime.enterInstant("word 0");
    JTime.exitInstant();
    JTime.enterInstant("word 1");
    JTime.exitInstant();
    JTime.exitInstant();
    JTime.enterInstant("acknowledge");
    JTime.exitInstant();
    JTime.exitInstant();
    writePort(0, readPort(0));
  }
}|}
  in
  let checked = Mj.Typecheck.check_source ~file:"protocol.mj" source in
  let elab = Javatime.Elaborate.elaborate checked ~cls:"Protocol" in
  ignore (Javatime.Elaborate.react elab [| Asr.Domain.int 7 |]);
  let machine = Javatime.Elaborate.machine elab in
  let root = Mj_runtime.Machine.instant_root machine in
  let rec render indent (node : Mj_runtime.Machine.instant) =
    Printf.printf "%s%s\n" indent node.Mj_runtime.Machine.label;
    List.iter (render (indent ^ "  ")) node.Mj_runtime.Machine.subs
  in
  print_endline "instants opened by one reaction of an MJ protocol block:";
  render "  " root;
  print_newline ();
  (* ASR side: a composite block's internal activity as sub-instants. *)
  let instants = Asr.Instant.make "instant 0 (outer reaction)" in
  let inner = Asr.Graph.create "inner" in
  let i = Asr.Graph.add_input inner "a" in
  let g1 = Asr.Graph.add_block inner (Asr.Block.gain 3) in
  let g2 = Asr.Graph.add_block inner (Asr.Block.gain 5) in
  let o = Asr.Graph.add_output inner "b" in
  Asr.Graph.connect inner ~src:(Asr.Graph.out_port i 0) ~dst:(Asr.Graph.in_port g1 0);
  Asr.Graph.connect inner ~src:(Asr.Graph.out_port g1 0) ~dst:(Asr.Graph.in_port g2 0);
  Asr.Graph.connect inner ~src:(Asr.Graph.out_port g2 0) ~dst:(Asr.Graph.in_port o 0);
  let composite = Asr.Compose.to_block ~instants inner in
  ignore (Asr.Block.apply composite [| Asr.Domain.int 2 |]);
  print_endline "sub-instants of one application of a composite ASR block:";
  print_string (Asr.Instant.to_string instants);
  Printf.printf "tree: depth %d, %d nodes\n" (Asr.Instant.depth instants)
    (Asr.Instant.count instants);
  print_newline ();
  (* The paper's own example: "communication of a message between two
     processors may be viewed as a single instant, rather than as a
     multitude of instants representing the detailed protocol
     activities." One byte through the UART pair: *)
  let checked = Mj.Typecheck.check_source ~file:"uart.mj" Workloads.Uart_mj.source in
  let tx =
    Javatime.Elaborate.elaborate checked ~cls:Workloads.Uart_mj.serializer_class
  in
  let rx =
    Javatime.Elaborate.elaborate checked ~cls:Workloads.Uart_mj.deserializer_class
  in
  let byte = 0x5A in
  let delivered = ref (-1) in
  let detail_instants = ref 0 in
  for i = 1 to Workloads.Uart_mj.frame_instants do
    incr detail_instants;
    let word = if i = 1 then byte else -1 in
    match Javatime.Elaborate.react tx [| Asr.Domain.int word |] with
    | [| line; _busy |] -> (
        match Javatime.Elaborate.react rx [| line |] with
        | [| completed |] -> (
            match Asr.Domain.to_int completed with
            | Some c when c >= 0 -> delivered := c
            | _ -> ())
        | _ -> ())
    | _ -> ()
  done;
  Printf.printf
    "message transfer over the UART pair: 1 abstract instant = %d detail      instants (byte 0x%02X delivered as 0x%02X)\n"
    !detail_instants byte !delivered

(* ------------------------------------------------------------------ *)
(* Fig. 5: spatial abstraction                                         *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  print_endline "Fig. 5: blocks + delays  ==  one block + one delay";
  print_newline ();
  let g = fig3_graph () in
  let abstracted = Asr.Compose.abstract g in
  Printf.printf "original:   %s\n" (Asr.Render.summary g);
  Printf.printf "abstracted: %s\n" (Asr.Render.summary abstracted);
  let sim1 = Asr.Simulate.create g in
  let sim2 = Asr.Simulate.create abstracted in
  let rng = Random.State.make [| 5 |] in
  let mismatches = ref 0 in
  let instants = 200 in
  for _ = 1 to instants do
    let i1 = Random.State.int rng 100 and i2 = Random.State.int rng 100 in
    let inputs = [ ("i1", Asr.Domain.int i1); ("i2", Asr.Domain.int i2) ] in
    if Asr.Simulate.step sim1 inputs <> Asr.Simulate.step sim2 inputs then
      incr mismatches
  done;
  Printf.printf "I/O equivalence over %d random instants: %s\n" instants
    (if !mismatches = 0 then "EQUAL" else Printf.sprintf "%d mismatches" !mismatches)

(* ------------------------------------------------------------------ *)
(* Fig. 6: threads define a partial order                              *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  print_endline "Fig. 6: Java threads specify a partial order of events";
  print_newline ();
  List.iter
    (fun seed ->
      let output, trace = Workloads.Fig8_mj.run_threaded ~seed in
      Printf.printf "schedule (seed %d): result %s" seed output;
      List.iter
        (fun e ->
          Printf.printf "    [thread %d] %s\n" e.Mj_runtime.Threads.thread
            e.Mj_runtime.Threads.description)
        trace;
      print_newline ())
    [ 0; 1; 3 ];
  print_endline
    "the per-thread orders are fixed; the cross-thread order is not -";
  print_endline "different linearizations of the same partial order differ in result."

(* ------------------------------------------------------------------ *)
(* Fig. 7: encapsulation in the ASR class                              *)
(* ------------------------------------------------------------------ *)

let fig7 () =
  print_endline "Fig. 7: an MJ design encapsulated in the ASR base class";
  print_newline ();
  let checked = Mj.Typecheck.check_source Workloads.Traffic_mj.source in
  let elab = Javatime.Elaborate.elaborate checked ~cls:"TrafficLight" in
  let n_in, n_out = Javatime.Elaborate.ports elab in
  Printf.printf "class TrafficLight extends ASR\n";
  Printf.printf "  input ports:  %d (car sensor)\n" n_in;
  Printf.printf "  output ports: %d (main light, side light)\n" n_out;
  Printf.printf "  initialization: %d cycles (constructor = fabrication + reset)\n"
    (Javatime.Elaborate.init_cycles elab);
  (match Policy.Time_bound.reaction_bound checked ~cls:"TrafficLight" with
  | Policy.Time_bound.Cycles n ->
      Printf.printf "  static worst-case reaction bound: %d cycles\n" n
  | Policy.Time_bound.Unbounded why -> Printf.printf "  unbounded: %s\n" why);
  ignore (Javatime.Elaborate.react elab [| Asr.Domain.int 0 |]);
  Printf.printf "  observed reaction: %d cycles\n"
    (Javatime.Elaborate.last_reaction_cycles elab);
  let stats =
    Mj_runtime.Heap.stats (Javatime.Elaborate.machine elab).Mj_runtime.Machine.heap
  in
  Printf.printf
    "  heap: %d init-phase allocation(s), %d reactive allocation(s) \
     (bounded-memory enforcement armed)\n"
    stats.Mj_runtime.Heap.init_allocations
    stats.Mj_runtime.Heap.reactive_allocations;
  print_endline "  protocol per instant: environment writes input ports,";
  print_endline "  invokes run() (atomic from outside), reads output ports."

(* ------------------------------------------------------------------ *)
(* Fig. 8: nondeterministic thread interaction                         *)
(* ------------------------------------------------------------------ *)

let fig8 () =
  print_endline "Fig. 8: nondeterministic thread interaction on shared x";
  print_newline ();
  let seeds = 40 in
  let outcomes = Hashtbl.create 8 in
  for seed = 0 to seeds - 1 do
    let output, _ = Workloads.Fig8_mj.run_threaded ~seed in
    let n = try Hashtbl.find outcomes output with Not_found -> 0 in
    Hashtbl.replace outcomes output (n + 1)
  done;
  Printf.printf "threaded program over %d seeded schedules: %d distinct outcome(s)\n"
    seeds (Hashtbl.length outcomes);
  Hashtbl.iter (fun k n -> Printf.printf "    %-24s x%d" (String.trim k) n;
                 print_newline ()) outcomes;
  print_newline ();
  let runs =
    List.init 5 (fun _ -> Workloads.Fig8_mj.run_refined ~instants:4)
  in
  let all_equal = List.for_all (fun r -> r = List.hd runs) runs in
  Printf.printf
    "refined ASR version (threads as functional blocks + delay): %s\n"
    (if all_equal then "1 distinct outcome across runs (deterministic)"
     else "NONDETERMINISTIC (bug)");
  Printf.printf "    x per instant: %s\n"
    (String.concat ", " (List.map string_of_int (List.hd runs)))

(* ------------------------------------------------------------------ *)
(* Ablation                                                            *)
(* ------------------------------------------------------------------ *)

let ablation () =
  print_endline "Ablation: which restriction pays, and what stays manual";
  print_newline ();
  let width = 48 and height = 40 in
  let image = Workloads.Images.synthetic ~width ~height in
  let unrestricted = Workloads.Jpeg_mj.unrestricted_source ~width ~height () in
  let restricted = Workloads.Jpeg_mj.restricted_source ~width ~height () in
  let auto_refined =
    let outcome =
      Javatime.Engine.refine
        (Mj.Parser.parse_program ~file:"jpeg.mj" unrestricted)
    in
    Mj.Pretty.program_to_string outcome.Javatime.Engine.final
  in
  let measure name source =
    let (cell, _) =
      run_codec ~engine:Javatime.Elaborate.Engine_vm ~source ~image ~reactions:1
    in
    Printf.printf "  %-34s init %10d cy   reaction %11d cy\n" name
      cell.c_init_cycles cell.c_react_cycles;
    cell
  in
  let u = measure "unrestricted" unrestricted in
  let a = measure "auto-refined (SFR, no manual work)" auto_refined in
  let r = measure "hand-restricted" restricted in
  print_newline ();
  (* GC pauses per reaction (JDK-style collector armed above) *)
  let gc_runs name source =
    let checked = Mj.Typecheck.check_source ~file:"jpeg.mj" source in
    let elab =
      Javatime.Elaborate.elaborate ~engine:Javatime.Elaborate.Engine_vm
        ~enforce_policy:false ~bounded_memory:false ~gc_threshold checked
        ~cls:"JpegCodec"
    in
    ignore (Javatime.Elaborate.react elab [| Asr.Domain.int_array image |]);
    let heap = (Javatime.Elaborate.machine elab).Mj_runtime.Machine.heap in
    Printf.printf "  %-34s %d GC pause(s) per reaction\n" name
      (Mj_runtime.Heap.gc_count heap)
  in
  gc_runs "unrestricted" unrestricted;
  gc_runs "hand-restricted" restricted;
  print_newline ();
  Printf.printf
    "  automatic transformations recover %.0f%% of the reaction-time gap;\n"
    (100.0
    *. float_of_int (u.c_react_cycles - a.c_react_cycles)
    /. float_of_int (u.c_react_cycles - r.c_react_cycles));
  print_endline
    "  the rest needs the manual data-structure work (linked list -> static\n\
    \  buffers, table precomputation) the paper describes.";
  print_newline ();
  (* allocation accounting across the three versions *)
  let allocs name source =
    let checked = Mj.Typecheck.check_source ~file:"jpeg.mj" source in
    let elab =
      Javatime.Elaborate.elaborate ~engine:Javatime.Elaborate.Engine_vm
        ~enforce_policy:false ~bounded_memory:false checked ~cls:"JpegCodec"
    in
    ignore (Javatime.Elaborate.react elab [| Asr.Domain.int_array image |]);
    let stats =
      Mj_runtime.Heap.stats
        (Javatime.Elaborate.machine elab).Mj_runtime.Machine.heap
    in
    Printf.printf "  %-34s init allocs %5d   reactive allocs %6d\n" name
      stats.Mj_runtime.Heap.init_allocations
      stats.Mj_runtime.Heap.reactive_allocations
  in
  allocs "unrestricted" unrestricted;
  allocs "auto-refined" auto_refined;
  allocs "hand-restricted" restricted

(* ------------------------------------------------------------------ *)
(* Fixpoint scheduling strategies                                      *)
(* ------------------------------------------------------------------ *)

(* Compares chaotic iteration (declaration order and best/topological
   order) against the static schedule and the worklist evaluator on
   feed-forward, cyclic, and random topologies, reporting per-strategy
   block-evaluation counts and wall time. The feed-forward graphs are
   declared output-first — a legal construction order on which chaotic
   iteration exhibits its O(blocks x nets) behaviour. *)

module Sched_bench = struct
  module D = Asr.Domain
  module G = Asr.Graph
  module B = Asr.Block

  let conn g src dst = G.connect g ~src ~dst

  (* FIR filter with [taps] taps, adder chain declared output-first:
     chain position k uses the node declared at index taps-2-k, so every
     chain consumer precedes its producer in declaration order (the
     chaotic worst case). Feed-forward. *)
  let fir_graph taps =
    let g = G.create (Printf.sprintf "fir%d" taps) in
    let output = G.add_output g "y" in
    let rev_adders = Array.init (taps - 1) (fun _ -> G.add_block g B.add) in
    let adders = Array.init (taps - 1) (fun k -> rev_adders.(taps - 2 - k)) in
    let gains = Array.init taps (fun k -> G.add_block g (B.gain (taps - k))) in
    let forks = Array.init (taps - 1) (fun _ -> G.add_block g (B.fork 2)) in
    let delays =
      Array.init (taps - 1) (fun _ -> G.add_delay g ~init:(D.int 0))
    in
    let input = G.add_input g "x" in
    conn g (G.out_port input 0) (G.in_port forks.(0) 0);
    for k = 0 to taps - 2 do
      (* tap k's fork feeds its gain and the next delay *)
      conn g (G.out_port forks.(k) 0) (G.in_port gains.(k) 0);
      conn g (G.out_port forks.(k) 1) (G.in_port delays.(k) 0);
      if k < taps - 2 then
        conn g (G.out_port delays.(k) 0) (G.in_port forks.(k + 1) 0)
    done;
    conn g (G.out_port delays.(taps - 2) 0) (G.in_port gains.(taps - 1) 0);
    (* adder chain *)
    conn g (G.out_port gains.(0) 0) (G.in_port adders.(0) 0);
    conn g (G.out_port gains.(1) 0) (G.in_port adders.(0) 1);
    for k = 1 to taps - 2 do
      conn g (G.out_port adders.(k - 1) 0) (G.in_port adders.(k) 0);
      conn g (G.out_port gains.(k + 1) 0) (G.in_port adders.(k) 1)
    done;
    conn g (G.out_port adders.(taps - 2) 0) (G.in_port output 0);
    g

  (* Deep diamond pipeline shaped like the JPEG stage chain (each stage:
     fork -> two unary transforms -> recombine), declared output-first. *)
  let pipeline_graph stages =
    let g = G.create (Printf.sprintf "pipe%d" stages) in
    let output = G.add_output g "y" in
    let stage_blocks =
      (* declare stage [stages-1] (closest to the output) first *)
      Array.init stages (fun _ ->
          let add = G.add_block g B.add in
          let hi = G.add_block g (B.gain 3) in
          let lo = G.add_block g (B.gain 2) in
          let fork = G.add_block g (B.fork 2) in
          (fork, lo, hi, add))
    in
    let input = G.add_input g "x" in
    let wire_stage (fork, lo, hi, add) src =
      conn g src (G.in_port fork 0);
      conn g (G.out_port fork 0) (G.in_port lo 0);
      conn g (G.out_port fork 1) (G.in_port hi 0);
      conn g (G.out_port lo 0) (G.in_port add 0);
      conn g (G.out_port hi 0) (G.in_port add 1);
      G.out_port add 0
    in
    let last =
      Array.fold_left
        (fun src stage -> wire_stage stage src)
        (G.out_port input 0)
        (Array.init stages (fun i -> stage_blocks.(stages - 1 - i)))
    in
    conn g last (G.in_port output 0);
    g

  (* [loops] independent delay-free cycles, each resolved through the
     dead branch of a mux (genuinely cyclic SCCs, still constructive). *)
  let cyclic_graph loops =
    let g = G.create (Printf.sprintf "cyclic%d" loops) in
    for i = 0 to loops - 1 do
      let sel = G.add_block g (B.const ~name:"sel" (Asr.Data.Bool true)) in
      let v = G.add_block g (B.const ~name:"v" (Asr.Data.Int i)) in
      let mux = G.add_block g B.mux in
      let fork = G.add_block g (B.fork 2) in
      let out = G.add_output g (Printf.sprintf "y%d" i) in
      conn g (G.out_port sel 0) (G.in_port mux 0);
      conn g (G.out_port v 0) (G.in_port mux 1);
      conn g (G.out_port mux 0) (G.in_port fork 0);
      conn g (G.out_port fork 0) (G.in_port mux 2);
      conn g (G.out_port fork 1) (G.in_port out 0)
    done;
    g

  (* Random layered DAG with delay feedback, declaration order shuffled
     by construction: consumers draw from any previously declared source. *)
  let random_graph ~seed ~inputs ~layers ~per_layer ~delays =
    let rng = Random.State.make [| seed |] in
    let g = G.create (Printf.sprintf "rand%d" seed) in
    let sources = ref [] in
    let add_source e = sources := e :: !sources in
    for i = 0 to inputs - 1 do
      let input = G.add_input g (Printf.sprintf "x%d" i) in
      add_source (G.out_port input 0)
    done;
    let delay_nodes =
      List.init delays (fun i ->
          let d = G.add_delay g ~init:(D.int i) in
          add_source (G.out_port d 0);
          d)
    in
    let pick () =
      List.nth !sources (Random.State.int rng (List.length !sources))
    in
    for _ = 1 to layers do
      for _ = 1 to per_layer do
        if Random.State.bool rng then begin
          let b = G.add_block g (B.gain (1 + Random.State.int rng 4)) in
          conn g (pick ()) (G.in_port b 0);
          add_source (G.out_port b 0)
        end
        else begin
          let b = G.add_block g B.add in
          conn g (pick ()) (G.in_port b 0);
          conn g (pick ()) (G.in_port b 1);
          add_source (G.out_port b 0)
        end
      done
    done;
    List.iter (fun d -> conn g (pick ()) (G.in_port d 0)) delay_nodes;
    let out = G.add_output g "y" in
    conn g (pick ()) (G.in_port out 0);
    g

  let input_names g =
    List.filter_map
      (fun (_, kind) ->
        match kind with G.Kinput label -> Some label | _ -> None)
      (G.nodes g)

  let stimulus g ~instants =
    let names = input_names g in
    List.init instants (fun t ->
        List.mapi (fun i name -> (name, D.int ((t + i) mod 97))) names)

  type run = {
    r_label : string;
    r_evals : int;
    r_wall : float;
    r_outputs : (string * D.t) list list;
  }

  let run_strategy g stream ~label ?order ?strategy () =
    let sim = Asr.Simulate.create ?order ?strategy g in
    let t0 = Unix.gettimeofday () in
    let trace = Asr.Simulate.run sim stream in
    let wall = Unix.gettimeofday () -. t0 in
    { r_label = label;
      r_evals = Asr.Simulate.block_evaluations sim;
      r_wall = wall;
      r_outputs = List.map (fun e -> e.Asr.Simulate.outputs) trace }

  type report = {
    w_name : string;
    w_blocks : int;
    w_nets : int;
    w_cyclic : int;
    w_instants : int;
    w_runs : run list;
    w_equal : bool;
    w_speedup_scheduled : float;
    w_speedup_worklist : float;
  }

  let bench_graph name g ~instants =
    let compiled = G.compile g in
    let schedule = Asr.Schedule.of_compiled compiled in
    let stream = stimulus g ~instants in
    let n_blocks = Array.length compiled.G.c_blocks in
    let chaotic =
      run_strategy g stream ~label:"chaotic (declaration order)"
        ~strategy:Asr.Fixpoint.Chaotic ()
    in
    let chaotic_best =
      run_strategy g stream ~label:"chaotic (topological order)"
        ~order:(Asr.Schedule.linear_order schedule) ()
    in
    let scheduled =
      run_strategy g stream ~label:"scheduled" ~strategy:Asr.Fixpoint.Scheduled ()
    in
    let worklist =
      run_strategy g stream ~label:"worklist" ~strategy:Asr.Fixpoint.Worklist ()
    in
    let runs = [ chaotic; chaotic_best; scheduled; worklist ] in
    let equal =
      List.for_all (fun r -> r.r_outputs = chaotic.r_outputs) runs
    in
    { w_name = name;
      w_blocks = n_blocks;
      w_nets = compiled.G.n_nets;
      w_cyclic = Asr.Schedule.cyclic_block_count schedule;
      w_instants = instants;
      w_runs = runs;
      w_equal = equal;
      w_speedup_scheduled =
        float_of_int chaotic.r_evals /. float_of_int scheduled.r_evals;
      w_speedup_worklist =
        float_of_int chaotic.r_evals /. float_of_int worklist.r_evals }

  let reports ~smoke () =
    let scale n small = if smoke then small else n in
    [ bench_graph "fir" (fir_graph (scale 64 12)) ~instants:(scale 200 20);
      bench_graph "jpeg-pipeline"
        (pipeline_graph (scale 40 10))
        ~instants:(scale 200 20);
      bench_graph "cyclic" (cyclic_graph (scale 16 4)) ~instants:(scale 200 20);
      bench_graph "random"
        (random_graph ~seed:11 ~inputs:3 ~layers:(scale 12 4)
           ~per_layer:(scale 25 6) ~delays:4)
        ~instants:(scale 200 20);
      (* generated nets from the shared Netgen family (the same generator
         the fusion, monitor and causal benches scale over). Layers are
         declared input-to-output, so chaotic declaration order is
         near-topological here — an honest best case next to the
         output-first fir/jpeg rows, which is why these rows sit outside
         the >= 5x feed-forward gate. *)
      bench_graph "netgen-1e2"
        (Workloads.Netgen.generate ~inputs:3 ~delays:4 ~cyclic_ratio:0.05
           ~seed:211 ~depth:(scale 5 3) ~width:(scale 20 5) ())
        ~instants:(scale 200 20);
      bench_graph "netgen-1e3"
        (Workloads.Netgen.generate ~inputs:3 ~delays:4 ~cyclic_ratio:0.05
           ~seed:212 ~depth:(scale 25 4) ~width:(scale 40 6) ())
        ~instants:(scale 200 20) ]

  let print_text reports =
    print_endline
      "Fixpoint strategies: chaotic vs. static schedule vs. worklist";
    print_newline ();
    List.iter
      (fun w ->
        Printf.printf "%s: %d blocks, %d nets, %d cyclic, %d instants%s\n"
          w.w_name w.w_blocks w.w_nets w.w_cyclic w.w_instants
          (if w.w_cyclic = 0 then " (feed-forward)" else "");
        List.iter
          (fun r ->
            Printf.printf "  %-30s %10d evals   %8.2f evals/instant   %8.4f s\n"
              r.r_label r.r_evals
              (float_of_int r.r_evals /. float_of_int w.w_instants)
              r.r_wall)
          w.w_runs;
        Printf.printf
          "  fixpoints equal: %s   speedup (evals) scheduled %.1fx, worklist \
           %.1fx\n\n"
          (if w.w_equal then "yes" else "NO (BUG)")
          w.w_speedup_scheduled w.w_speedup_worklist)
      reports

  let print_json reports =
    let run_json r =
      Printf.sprintf
        "{\"label\": %S, \"evaluations\": %d, \"wall_s\": %.6f}" r.r_label
        r.r_evals r.r_wall
    in
    let report_json w =
      Printf.sprintf
        "    {\"name\": %S, \"blocks\": %d, \"nets\": %d, \"cyclic_blocks\": \
         %d, \"instants\": %d, \"equal_fixpoints\": %b,\n\
        \     \"speedup_evals_scheduled\": %.2f, \"speedup_evals_worklist\": \
         %.2f,\n\
        \     \"strategies\": [%s]}"
        w.w_name w.w_blocks w.w_nets w.w_cyclic w.w_instants w.w_equal
        w.w_speedup_scheduled w.w_speedup_worklist
        (String.concat ", " (List.map run_json w.w_runs))
    in
    Printf.printf
      "{\n  \"bench\": \"asr_schedule\",\n  \"workloads\": [\n%s\n  ]\n}\n"
      (String.concat ",\n" (List.map report_json reports))

  (* Smoke contract (wired into `dune runtest` via the bench-smoke
     alias): identical fixpoints everywhere, >= 5x fewer evaluations on
     the feed-forward workloads. *)
  let check reports =
    let failed = ref false in
    List.iter
      (fun w ->
        if not w.w_equal then begin
          Printf.eprintf "FAIL %s: strategies disagree on the fixpoint\n"
            w.w_name;
          failed := true
        end;
        let deep_feed_forward = List.mem w.w_name [ "fir"; "jpeg-pipeline" ] in
        if deep_feed_forward && w.w_speedup_worklist < 5.0 then begin
          Printf.eprintf
            "FAIL %s: worklist speedup %.1fx < 5x on a feed-forward workload\n"
            w.w_name w.w_speedup_worklist;
          failed := true
        end)
      reports;
    if !failed then exit 1

  let run ~json ~smoke () =
    let reports = reports ~smoke () in
    if json then print_json reports else print_text reports;
    check reports
end

(* ------------------------------------------------------------------ *)

(* Reaction fusion: the ahead-of-time compiled strategy (Fuse plans
   executed by Fixpoint.Fused) against the interpreted static schedule —
   wall clock on the deep feed-forward workloads, a generated-net
   scaling curve up to 1e5 blocks, and fault containment on the fused
   path. The fir/jpeg-pipeline rows reuse the schedule bench's graphs,
   sizes and stimulus, so their "scheduled" rows key-match the committed
   BENCH_asr_schedule.json under `--compare` (eval regressions in the
   shared strategy fail the gate). *)

module Fusion_bench = struct
  module G = Asr.Graph
  module S = Asr.Supervisor
  module I = Asr.Inject

  type srun = {
    f_label : string;
    f_evals : int;
    f_wall : float;  (* mean s/pass *)
    f_best : float;  (* best s/pass, reset excluded *)
    f_words : float;  (* minor words of one pass (deterministic) *)
    f_counted : int;  (* sum of asr.block.*.evals after the untimed pass *)
  }

  (* Evaluations and outputs from one untimed pass (deterministic,
     comparable across artifacts); wall from [passes] repeated timed
     passes of the bare reaction loop, amortizing noise. The simulator —
     and with it the schedule and the fuse plan — is created once:
     plan compilation is setup, not reaction cost. *)
  let measure ?supervisor ?monitor ?telemetry g stream ~label ~strategy
      ~passes =
    let sim =
      Asr.Simulate.create ~strategy ?supervisor ?monitor ?telemetry g
    in
    let outputs = List.map (fun inputs -> Asr.Simulate.step sim inputs) stream in
    let evals = Asr.Simulate.block_evaluations sim in
    let counted =
      match telemetry with
      | None -> 0
      | Some reg ->
          List.fold_left
            (fun acc c ->
              let n = c.Telemetry.Registry.c_name in
              if
                String.starts_with ~prefix:"asr.block." n
                && String.ends_with ~suffix:".evals" n
              then acc + c.Telemetry.Registry.c_value
              else acc)
            0
            (Telemetry.Registry.counters reg)
    in
    Asr.Simulate.reset sim;
    let best = ref infinity and words = ref 0.0 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to passes do
      let w0 = Gc.minor_words () and p0 = Unix.gettimeofday () in
      List.iter (fun inputs -> ignore (Asr.Simulate.step sim inputs)) stream;
      best := Float.min !best (Unix.gettimeofday () -. p0);
      words := Gc.minor_words () -. w0;
      Asr.Simulate.reset sim
    done;
    let wall = (Unix.gettimeofday () -. t0) /. float_of_int passes in
    ( outputs,
      { f_label = label; f_evals = evals; f_wall = wall; f_best = !best;
        f_words = !words; f_counted = counted } )

  type report = {
    w_name : string;
    w_blocks : int;
    w_nets : int;
    w_cyclic : int;
    w_instants : int;
    w_kernel_steps : int;
    w_folded : int;
    w_equal : bool;  (* fused = scheduled = chaotic outputs, instant by instant *)
    w_speedup_wall : float;
    w_speedup_evals : float;
    w_runs : srun list;
    w_gate_wall : bool;  (* row participates in the >=10x wall gate *)
  }

  let bench_graph ?(gate_wall = false) ?(oracle = true) name g ~instants
      ~passes =
    let compiled = G.compile g in
    let schedule = Asr.Schedule.of_compiled compiled in
    let plan = Asr.Fuse.compile ~schedule compiled in
    let stream = Sched_bench.stimulus g ~instants in
    let scheduled_out, scheduled =
      measure g stream ~label:"scheduled" ~strategy:Asr.Fixpoint.Scheduled
        ~passes
    in
    let fused_out, fused =
      measure g stream ~label:"fused" ~strategy:Asr.Fixpoint.Fused ~passes
    in
    (* The chaotic oracle pins both to the reference least fixed point;
       skipped on nets where its O(blocks x nets) sweeps are prohibitive
       (those sizes are covered by the qcheck differentials). *)
    let equal =
      fused_out = scheduled_out
      &&
      if not oracle then true
      else
        let chaotic_out, _ =
          measure g stream ~label:"chaotic" ~strategy:Asr.Fixpoint.Chaotic
            ~passes:1
        in
        fused_out = chaotic_out
    in
    { w_name = name;
      w_blocks = Array.length compiled.G.c_blocks;
      w_nets = compiled.G.n_nets;
      w_cyclic = Asr.Schedule.cyclic_block_count schedule;
      w_instants = instants;
      w_kernel_steps = plan.Asr.Fuse.f_n_fused;
      w_folded = plan.Asr.Fuse.f_n_folded;
      w_equal = equal;
      w_speedup_wall = scheduled.f_wall /. fused.f_wall;
      w_speedup_evals =
        float_of_int scheduled.f_evals /. float_of_int (max 1 fused.f_evals);
      w_runs = [ scheduled; fused ];
      w_gate_wall = gate_wall }

  let reports ~smoke () =
    let scale n small = if smoke then small else n in
    [ (* identical graphs/sizes/stimulus to the schedule bench: the
         shared "scheduled" rows are the --compare anchor *)
      bench_graph "fir"
        (Sched_bench.fir_graph (scale 64 12))
        ~instants:(scale 200 20) ~passes:(scale 50 3);
      bench_graph "jpeg-pipeline"
        (Sched_bench.pipeline_graph (scale 40 10))
        ~instants:(scale 200 20) ~passes:(scale 50 3);
      (* the wall-gate rows: same topologies scaled up so per-instant
         bookkeeping amortizes and the per-application gap dominates *)
      bench_graph "fir-xl" ~gate_wall:true ~oracle:smoke
        (Sched_bench.fir_graph (scale 512 16))
        ~instants:(scale 200 20) ~passes:(scale 20 3);
      bench_graph "jpeg-pipeline-xl" ~gate_wall:true ~oracle:smoke
        (Sched_bench.pipeline_graph (scale 320 12))
        ~instants:(scale 200 20) ~passes:(scale 20 3) ]

  (* ---- generated-net scaling curve --------------------------------- *)

  type scale_row = {
    s_blocks : int;
    s_nets : int;
    s_folded : int;
    s_cyclic : int;
    s_fuse_compile : float;
    s_evals_scheduled : int;
    s_evals_fused : int;
    s_wall_scheduled : float;
    s_wall_fused : float;
    s_equal : bool;
    s_fused_ns : float;  (* per instant, best of the timed passes *)
    s_fused_words : float;  (* minor words per instant *)
    s_supervised_ns : float;  (* fused + hold-last supervisor *)
    s_supervised_words : float;
    s_supervised_equal : bool;  (* supervised outputs = fused outputs *)
    s_observed_ns : float;  (* fused + supervisor + monitor + registry *)
    s_observed_words : float;
    s_observed_equal : bool;  (* observed outputs = fused outputs *)
    s_observed_counted : bool;  (* per-block counters sum to the evals *)
  }

  let scaling_row size ~instants =
    let width = min size 25 in
    let depth = max 1 (size / width) in
    let g =
      Workloads.Netgen.generate ~inputs:4 ~delays:4 ~cyclic_ratio:0.04
        ~seed:(271 + size) ~depth ~width ()
    in
    let compiled = G.compile g in
    let schedule = Asr.Schedule.of_compiled compiled in
    let t0 = Unix.gettimeofday () in
    let plan = Asr.Fuse.compile ~schedule compiled in
    let fuse_compile = Unix.gettimeofday () -. t0 in
    let stream = Workloads.Netgen.stimulus g ~instants in
    let scheduled_out, scheduled =
      measure g stream ~label:"scheduled" ~strategy:Asr.Fixpoint.Scheduled
        ~passes:1
    in
    let passes = if size >= 100_000 then 3 else 10 in
    let fused_out, fused =
      measure g stream ~label:"fused" ~strategy:Asr.Fixpoint.Fused ~passes
    in
    let supervised_out, supervised =
      measure ~supervisor:(S.create ~policy:S.Hold_last ()) g stream
        ~label:"fused+supervisor" ~strategy:Asr.Fixpoint.Fused ~passes
    in
    let observed_out, observed =
      measure ~supervisor:(S.create ~policy:S.Hold_last ())
        ~monitor:(Telemetry.Monitor.create ())
        ~telemetry:(Telemetry.Registry.create ())
        g stream ~label:"observed" ~strategy:Asr.Fixpoint.Fused ~passes
    in
    let n = float_of_int instants in
    { s_blocks = Array.length compiled.G.c_blocks;
      s_nets = compiled.G.n_nets;
      s_folded = plan.Asr.Fuse.f_n_folded;
      s_cyclic = plan.Asr.Fuse.f_n_cyclic;
      s_fuse_compile = fuse_compile;
      s_evals_scheduled = scheduled.f_evals;
      s_evals_fused = fused.f_evals;
      s_wall_scheduled = scheduled.f_wall;
      s_wall_fused = fused.f_wall;
      s_equal = fused_out = scheduled_out;
      s_fused_ns = fused.f_best /. n *. 1e9;
      s_fused_words = fused.f_words /. n;
      s_supervised_ns = supervised.f_best /. n *. 1e9;
      s_supervised_words = supervised.f_words /. n;
      s_supervised_equal = supervised_out = fused_out;
      s_observed_ns = observed.f_best /. n *. 1e9;
      s_observed_words = observed.f_words /. n;
      s_observed_equal = observed_out = fused_out;
      s_observed_counted = observed.f_counted = observed.f_evals }

  let scaling ~smoke () =
    let sizes =
      if smoke then [ 50; 200 ] else [ 100; 1_000; 10_000; 100_000 ]
    in
    List.map
      (fun size -> scaling_row size ~instants:(if smoke then 5 else 20))
      sizes

  (* ---- containment on the fused path ------------------------------- *)

  type containment = {
    c_workload : string;
    c_policy : string;
    c_injected : int;
    c_contained : int;
    c_affected : int;
    c_checked : int;
    c_contained_ok : bool;
  }

  let run_capture_fused ?supervisor ?inject g stream =
    let sim = Asr.Simulate.create ~strategy:Asr.Fixpoint.Fused ?supervisor g in
    List.map
      (fun inputs ->
        ignore (Asr.Simulate.step sim inputs);
        (match inject with Some inj -> I.tick inj | None -> ());
        Asr.Simulate.net_values sim)
      stream

  (* Same blast-radius property the faults bench checks for the worklist
     evaluator, on the fused plan: injected traps contained by the
     supervisor must leave every net outside the faulted blocks'
     influence cone bit-identical to the fault-free fused run. *)
  let containment ~smoke () =
    let scale n small = if smoke then small else n in
    let name = "fir" in
    let g = Sched_bench.fir_graph (scale 32 8) in
    let instants = scale 60 12 in
    let compiled = G.compile g in
    let n_blocks = Array.length compiled.G.c_blocks in
    let stream = Sched_bench.stimulus g ~instants in
    (* The clean run is supervised too (its supervisor never fires):
       both runs then take the block-at-a-time fused path, which
       materializes every net — the fast lane leaves collapsed interior
       nets at ⊥, which is invisible at the ports but not to the
       net-by-net comparison below. *)
    let clean =
      run_capture_fused ~supervisor:(S.create ~policy:S.Hold_last ()) g stream
    in
    let specs =
      I.plan ~seed:45 ~n_blocks ~instants ~n_faults:2 ~first_only:false ()
    in
    let inj = I.make specs in
    let sup = S.create ~policy:S.Hold_last () in
    let faulty =
      run_capture_fused ~supervisor:sup ~inject:inj (I.instrument inj g) stream
    in
    let affected = Array.make compiled.G.n_nets false in
    List.iter
      (fun s ->
        Array.iteri
          (fun i b -> if b then affected.(i) <- true)
          (G.affected_nets compiled s.I.i_block))
      specs;
    let checked = ref 0 and contained_ok = ref true in
    List.iter2
      (fun clean_nets faulty_nets ->
        Array.iteri
          (fun n v ->
            if not affected.(n) then begin
              incr checked;
              if v <> faulty_nets.(n) then contained_ok := false
            end)
          clean_nets)
      clean faulty;
    { c_workload = name;
      c_policy = S.policy_name S.Hold_last;
      c_injected = I.fired inj;
      c_contained = S.fault_count sup;
      c_affected =
        Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 affected;
      c_checked = !checked;
      c_contained_ok = !contained_ok && I.fired inj > 0 }

  (* ---- reporting and gates ----------------------------------------- *)

  let print_text (reports, srows, cont) =
    print_endline
      "Reaction fusion: ahead-of-time compiled nets vs. the static schedule";
    print_newline ();
    List.iter
      (fun w ->
        Printf.printf
          "%s: %d blocks (%d kernel steps, %d folded, %d cyclic), %d nets, \
           %d instants\n"
          w.w_name w.w_blocks w.w_kernel_steps w.w_folded w.w_cyclic w.w_nets
          w.w_instants;
        List.iter
          (fun r ->
            Printf.printf "  %-12s %10d evals   %10.6f s/pass\n" r.f_label
              r.f_evals r.f_wall)
          w.w_runs;
        Printf.printf
          "  fixpoints equal: %s   speedup wall %.1fx, evals %.2fx\n\n"
          (if w.w_equal then "yes" else "NO (BUG)")
          w.w_speedup_wall w.w_speedup_evals)
      reports;
    print_endline "scaling (generated nets, scheduled vs fused wall per pass):";
    List.iter
      (fun s ->
        Printf.printf
          "  %7d blocks  %7d nets  %6d folded  %5d cyclic  compile %8.4f s  \
           scheduled %9d evals %8.4f s  fused %9d evals %8.4f s  %5.1fx  %s\n"
          s.s_blocks s.s_nets s.s_folded s.s_cyclic s.s_fuse_compile
          s.s_evals_scheduled s.s_wall_scheduled s.s_evals_fused s.s_wall_fused
          (s.s_wall_scheduled /. s.s_wall_fused)
          (if s.s_equal then "equal" else "DIVERGED"))
      srows;
    print_endline
      "per instant, fused vs fused + supervisor (hold-last) vs observed \
       (supervisor + monitor + registry), best of passes:";
    List.iter
      (fun s ->
        Printf.printf
          "  %7d blocks  fused %11.0f ns %9.0f words  supervised %11.0f ns \
           %9.0f words  (%.2fx time, %.2fx words)  %s  observed %11.0f ns \
           %9.0f words  (%.2fx time, %.2fx words)  %s\n"
          s.s_blocks s.s_fused_ns s.s_fused_words s.s_supervised_ns
          s.s_supervised_words
          (s.s_supervised_ns /. s.s_fused_ns)
          (s.s_supervised_words /. s.s_fused_words)
          (if s.s_supervised_equal then "equal" else "DIVERGED")
          s.s_observed_ns s.s_observed_words
          (s.s_observed_ns /. s.s_fused_ns)
          (s.s_observed_words /. s.s_fused_words)
          (if s.s_observed_equal then "equal" else "DIVERGED"))
      srows;
    Printf.printf
      "\ncontainment (fused + %s): %d injected, %d contained, %d nets in \
       blast radius, %d (instant, net) pairs outside it %s\n"
      cont.c_policy cont.c_injected cont.c_contained cont.c_affected
      cont.c_checked
      (if cont.c_contained_ok then "bit-identical" else "DIVERGED");
    print_newline ()

  let print_json (reports, srows, cont) =
    let run_json r =
      Printf.sprintf "{\"label\": %S, \"evaluations\": %d, \"wall_s\": %.6f}"
        r.f_label r.f_evals r.f_wall
    in
    let report_json w =
      Printf.sprintf
        "    {\"name\": %S, \"blocks\": %d, \"nets\": %d, \"cyclic_blocks\": \
         %d, \"instants\": %d,\n\
        \     \"kernel_steps\": %d, \"folded_blocks\": %d, \
         \"equal_fixpoints\": %b,\n\
        \     \"speedup_wall_fused\": %.2f, \"speedup_evals_fused\": %.2f,\n\
        \     \"strategies\": [%s]}"
        w.w_name w.w_blocks w.w_nets w.w_cyclic w.w_instants w.w_kernel_steps
        w.w_folded w.w_equal w.w_speedup_wall w.w_speedup_evals
        (String.concat ", " (List.map run_json w.w_runs))
    in
    let scale_json s =
      Printf.sprintf
        "    {\"name\": \"netgen-%d\", \"blocks\": %d, \"nets\": %d, \
         \"folded_blocks\": %d, \"cyclic_blocks\": %d, \"fuse_compile_s\": \
         %.6f, \"evaluations_scheduled\": %d, \"evaluations_fused\": %d, \
         \"wall_scheduled_s\": %.6f, \"wall_fused_s\": %.6f, \
         \"speedup_wall\": %.2f, \"equal_outputs\": %b,\n\
        \     \"fused_ns_per_instant\": %.0f, \"fused_words_per_instant\": \
         %.0f, \"supervised_ns_per_instant\": %.0f, \
         \"supervised_words_per_instant\": %.0f, \
         \"supervised_equal_outputs\": %b,\n\
        \     \"observed_ns_per_instant\": %.0f, \"observed_words_per_instant\": \
         %.0f, \"observed_equal_outputs\": %b, \"observed_evals_counted\": %b}"
        s.s_blocks s.s_blocks s.s_nets s.s_folded s.s_cyclic s.s_fuse_compile
        s.s_evals_scheduled s.s_evals_fused s.s_wall_scheduled s.s_wall_fused
        (s.s_wall_scheduled /. s.s_wall_fused)
        s.s_equal s.s_fused_ns s.s_fused_words s.s_supervised_ns
        s.s_supervised_words s.s_supervised_equal s.s_observed_ns
        s.s_observed_words s.s_observed_equal s.s_observed_counted
    in
    Printf.printf
      "{\n\
      \  \"bench\": \"fusion\",\n\
      \  \"workloads\": [\n\
       %s\n\
      \  ],\n\
      \  \"scaling\": [\n\
       %s\n\
      \  ],\n\
      \  \"containment\": {\"workload\": %S, \"policy\": %S, \"injected\": \
       %d, \"contained\": %d, \"affected_nets\": %d, \"checked\": %d, \
       \"contained_identical\": %b}\n\
       }\n"
      (String.concat ",\n" (List.map report_json reports))
      (String.concat ",\n" (List.map scale_json srows))
      cont.c_workload cont.c_policy cont.c_injected cont.c_contained
      cont.c_affected cont.c_checked cont.c_contained_ok

  (* Gates: identical fixed points everywhere (chaotic oracle on the
     exact-match rows, scheduled differential at scale), containment
     bit-identical outside the blast radius, fused never evaluates more
     than scheduled, and — full size only, wall clocks of smoke-scaled
     graphs are all bookkeeping — >= 10x wall on the xl feed-forward
     rows. *)
  let check ~smoke (reports, srows, cont) =
    let failed = ref false in
    let fail fmt =
      Printf.ksprintf
        (fun s ->
          Printf.eprintf "FAIL %s\n" s;
          failed := true)
        fmt
    in
    List.iter
      (fun w ->
        if not w.w_equal then
          fail "%s: fused fixpoint differs from scheduled/chaotic" w.w_name;
        if w.w_speedup_evals < 1.0 then
          fail "%s: fused evaluated more blocks than scheduled (%.2fx)"
            w.w_name w.w_speedup_evals;
        if (not smoke) && w.w_gate_wall && w.w_speedup_wall < 10.0 then
          fail "%s: fused wall speedup %.1fx < 10x" w.w_name w.w_speedup_wall)
      reports;
    List.iter
      (fun s ->
        if not s.s_equal then
          fail "netgen-%d: fused outputs diverge from scheduled" s.s_blocks;
        if not s.s_supervised_equal then
          fail "netgen-%d: supervised fused outputs diverge from fused"
            s.s_blocks;
        (* deterministic: the supervised kernel lane allocates only the
           values it materializes, nothing per application *)
        if s.s_supervised_words > 1.25 *. s.s_fused_words then
          fail "netgen-%d: supervised fused allocates %.0f words/instant, \
                > 1.25x fused (%.0f)"
            s.s_blocks s.s_supervised_words s.s_fused_words;
        if not s.s_observed_equal then
          fail "netgen-%d: observed fused outputs diverge from fused"
            s.s_blocks;
        if not s.s_observed_counted then
          fail "netgen-%d: asr.block.*.evals counters do not sum to the \
                simulator's block evaluations"
            s.s_blocks)
      srows;
    if not cont.c_contained_ok then
      fail "%s: containment violated on the fused path (%d injected)"
        cont.c_workload cont.c_injected;
    if !failed then exit 1

  let run ~json ~smoke () =
    let results =
      (reports ~smoke (), scaling ~smoke (), containment ~smoke ())
    in
    if json then print_json results else print_text results;
    check ~smoke results
end

(* ------------------------------------------------------------------ *)
(* Bounds-check elision                                                *)
(* ------------------------------------------------------------------ *)

(* The interval analysis proves array indices in range for the
   restricted workloads (constant-bounded loops over statically sized
   arrays); the compiler then emits unchecked load/store instructions.
   This experiment measures how many sites the analysis discharges and
   what the cheaper tariff buys per reaction, on both bytecode engines,
   checking along the way that elision never changes the outputs. *)

module Boundscheck = struct
  type workload = {
    b_name : string;
    b_source : string;
    b_cls : string;
    b_inputs : Asr.Domain.t array list;
  }

  type engine_row = {
    e_label : string;
    e_baseline_cycles : int;
    e_elided_cycles : int;
    e_equal : bool;  (* outputs identical with and without elision *)
  }

  type report = {
    b_workload : string;
    b_sites_total : int;
    b_sites_elided : int;
    b_rows : engine_row list;
  }

  let workloads ~smoke () =
    let width = if smoke then 32 else 48 in
    let height = if smoke then 24 else 40 in
    let image = Workloads.Images.synthetic ~width ~height in
    let samples = if smoke then 24 else 192 in
    let fir_refined =
      (* no hand-restricted FIR ships; SFR produces the compliant one *)
      let outcome =
        Javatime.Engine.refine
          (Mj.Parser.parse_program ~file:"fir.mj"
             Workloads.Fir_mj.unrestricted_source)
      in
      Mj.Pretty.program_to_string outcome.Javatime.Engine.final
    in
    [ { b_name = "jpeg-restricted";
        b_source = Workloads.Jpeg_mj.restricted_source ~width ~height ();
        b_cls = "JpegCodec";
        b_inputs = [ [| Asr.Domain.int_array image |] ] };
      { b_name = "fir-refined";
        b_source = fir_refined;
        b_cls = Workloads.Fir_mj.class_name;
        b_inputs =
          List.init samples (fun i ->
              [| Asr.Domain.int (((i * 37) mod 201) - 100) |]) } ]

  let drive ~engine ~elide w =
    let checked = Mj.Typecheck.check_source ~file:(w.b_name ^ ".mj") w.b_source in
    let elab =
      Javatime.Elaborate.elaborate ~engine ~enforce_policy:false
        ~bounded_memory:false ~elide_bounds_checks:elide checked ~cls:w.b_cls
    in
    let outputs = List.map (Javatime.Elaborate.react elab) w.b_inputs in
    (Javatime.Elaborate.total_cycles elab
     - Javatime.Elaborate.init_cycles elab,
     outputs)

  let bench_workload ~smoke w =
    let checked = Mj.Typecheck.check_source ~file:(w.b_name ^ ".mj") w.b_source in
    let total = Analysis.Elide.all_sites checked in
    let elided = Hashtbl.length (Analysis.Elide.plan checked) in
    let engines =
      [ ("vm", Javatime.Elaborate.Engine_vm);
        ("jit", Javatime.Elaborate.Engine_jit) ]
    in
    let rows =
      List.map
        (fun (label, engine) ->
          let base_cycles, base_out = drive ~engine ~elide:false w in
          let elided_cycles, elided_out = drive ~engine ~elide:true w in
          { e_label = label;
            e_baseline_cycles = base_cycles;
            e_elided_cycles = elided_cycles;
            e_equal = base_out = elided_out })
        engines
    in
    ignore smoke;
    { b_workload = w.b_name;
      b_sites_total = total;
      b_sites_elided = elided;
      b_rows = rows }

  let reports ~smoke () =
    List.map (bench_workload ~smoke) (workloads ~smoke ())

  let print_text reports =
    print_endline
      "Bounds-check elision: interval analysis discharges the range checks";
    print_newline ();
    List.iter
      (fun r ->
        Printf.printf "%s: %d/%d array-access sites proven safe\n" r.b_workload
          r.b_sites_elided r.b_sites_total;
        List.iter
          (fun row ->
            Printf.printf
              "  %-4s baseline %10d cy   elided %10d cy   saved %5.2f%%   \
               outputs %s\n"
              row.e_label row.e_baseline_cycles row.e_elided_cycles
              (100.0
              *. float_of_int (row.e_baseline_cycles - row.e_elided_cycles)
              /. float_of_int (max 1 row.e_baseline_cycles))
              (if row.e_equal then "equal" else "DIFFER (BUG)"))
          r.b_rows;
        print_newline ())
      reports

  let print_json reports =
    let row_json row =
      Printf.sprintf
        "{\"engine\": %S, \"baseline_cycles\": %d, \"elided_cycles\": %d, \
         \"saved_pct\": %.2f, \"outputs_equal\": %b}"
        row.e_label row.e_baseline_cycles row.e_elided_cycles
        (100.0
        *. float_of_int (row.e_baseline_cycles - row.e_elided_cycles)
        /. float_of_int (max 1 row.e_baseline_cycles))
        row.e_equal
    in
    let report_json r =
      Printf.sprintf
        "    {\"workload\": %S, \"sites_total\": %d, \"sites_elided\": %d,\n\
        \     \"engines\": [%s]}"
        r.b_workload r.b_sites_total r.b_sites_elided
        (String.concat ", " (List.map row_json r.b_rows))
    in
    Printf.printf
      "{\n  \"bench\": \"boundscheck\",\n  \"workloads\": [\n%s\n  ]\n}\n"
      (String.concat ",\n" (List.map report_json reports))

  (* Smoke contract: the analysis discharges at least one check on every
     workload, elision never costs cycles, and outputs are untouched. *)
  let check reports =
    let failed = ref false in
    List.iter
      (fun r ->
        if r.b_sites_elided = 0 then begin
          Printf.eprintf "FAIL %s: no bounds checks elided\n" r.b_workload;
          failed := true
        end;
        List.iter
          (fun row ->
            if row.e_elided_cycles > row.e_baseline_cycles then begin
              Printf.eprintf "FAIL %s/%s: elision made the reaction dearer\n"
                r.b_workload row.e_label;
              failed := true
            end;
            if not row.e_equal then begin
              Printf.eprintf "FAIL %s/%s: elision changed the outputs\n"
                r.b_workload row.e_label;
              failed := true
            end)
          r.b_rows)
      reports;
    if !failed then exit 1

  let run ~json ~smoke () =
    let reports = reports ~smoke () in
    if json then print_json reports else print_text reports;
    check reports
end

(* ------------------------------------------------------------------ *)
(* Static analysis: race detector + interval loop bounds               *)
(* ------------------------------------------------------------------ *)

module Analysis_bench = struct
  (* The local-copied-bound shape the syntactic recognizer rejects but
     the interval analysis bounds (documents the subsumption is strict). *)
  let interval_only_source =
    {|class IntervalOnly extends ASR {
  IntervalOnly() { declarePorts(1, 1); }
  public void run() {
    int n = 10;
    int m = n * 2;
    int acc = readPort(0);
    for (int i = 0; i < m; i++) { acc = acc + i; }
    writePort(0, acc);
  }
}|}

  type loop_counts = {
    l_syntactic : int;  (* loops the syntactic recognizer bounds *)
    l_interval : int;   (* loops the full analysis bounds *)
    l_regressed : int;  (* syntactic-bounded loops the fallback loses *)
  }

  type report = {
    a_name : string;
    a_races : int;
    a_compliant : bool;
    a_loops : loop_counts;
  }

  let loop_counts checked =
    let syntactic = ref 0 and interval = ref 0 and regressed = ref 0 in
    List.iter
      (fun cls ->
        List.iter
          (fun body ->
            Mj.Visit.iter_stmts
              ~stmt:(fun s ->
                match s.Mj.Ast.stmt with
                | Mj.Ast.For _ ->
                    let syn = Policy.Loop_bounds.syntactic_for_bound checked s in
                    let full =
                      Policy.Loop_bounds.for_bound
                        ~enclosing:body.Mj.Visit.b_stmts checked s
                    in
                    (match syn with
                    | Policy.Loop_bounds.Bounded _ -> incr syntactic
                    | _ -> ());
                    (match full with
                    | Policy.Loop_bounds.Bounded _ -> incr interval
                    | _ -> (
                        match syn with
                        | Policy.Loop_bounds.Bounded _ -> incr regressed
                        | _ -> ()))
                | _ -> ())
              ~expr:(fun _ -> ())
              body.Mj.Visit.b_stmts)
          (Mj.Visit.bodies cls))
      checked.Mj.Typecheck.program.Mj.Ast.classes;
    { l_syntactic = !syntactic; l_interval = !interval; l_regressed = !regressed }

  let survey name source =
    let checked = Mj.Typecheck.check_source ~file:(name ^ ".mj") source in
    let violations = Policy.Asr_policy.check checked in
    { a_name = name;
      a_races = List.length (Analysis.Races.detect checked);
      a_compliant = not (List.exists Policy.Rule.is_blocking violations);
      a_loops = loop_counts checked }

  let reports ~smoke () =
    let dims = if smoke then (32, 24) else (48, 40) in
    let width, height = dims in
    [ survey "fig8-threaded" Workloads.Fig8_mj.threaded_source;
      survey "fig8-refined-blocks" Workloads.Fig8_mj.refined_blocks_source;
      survey "traffic" Workloads.Traffic_mj.source;
      survey "elevator" Workloads.Elevator_mj.source;
      survey "uart" Workloads.Uart_mj.source;
      survey "jpeg-restricted"
        (Workloads.Jpeg_mj.restricted_source ~width ~height ());
      survey "jpeg-unrestricted"
        (Workloads.Jpeg_mj.unrestricted_source ~width ~height ());
      survey "interval-only" interval_only_source ]

  let print_text reports =
    print_endline
      "Static analysis: shared-field races and interval loop bounds";
    print_newline ();
    Printf.printf "%-22s %6s %10s %28s\n" "" "races" "compliant"
      "loops bounded (syn -> itv)";
    List.iter
      (fun r ->
        Printf.printf "%-22s %6d %10s %18d -> %d%s\n" r.a_name r.a_races
          (if r.a_compliant then "yes" else "no")
          r.a_loops.l_syntactic r.a_loops.l_interval
          (if r.a_loops.l_regressed > 0 then "  (REGRESSION)" else ""))
      reports

  let print_json reports =
    let report_json r =
      Printf.sprintf
        "    {\"workload\": %S, \"races\": %d, \"compliant\": %b, \
         \"loops_syntactic\": %d, \"loops_interval\": %d, \
         \"loops_regressed\": %d}"
        r.a_name r.a_races r.a_compliant r.a_loops.l_syntactic
        r.a_loops.l_interval r.a_loops.l_regressed
    in
    Printf.printf
      "{\n  \"bench\": \"analysis\",\n  \"workloads\": [\n%s\n  ]\n}\n"
      (String.concat ",\n" (List.map report_json reports))

  (* Smoke contract (the analysis-smoke alias): the race detector flags
     the paper's Fig. 8 threaded program and nothing else; the interval
     analysis subsumes the syntactic recognizer everywhere and strictly
     extends it on the local-copied-bound shape; the unrestricted JPEG
     still flags while the restricted one stays clean. *)
  let check reports =
    let failed = ref false in
    let fail fmt = Printf.ksprintf (fun m -> Printf.eprintf "FAIL %s\n" m;
                                     failed := true) fmt in
    List.iter
      (fun r ->
        (match r.a_name with
        | "fig8-threaded" ->
            if r.a_races = 0 then fail "%s: race not detected" r.a_name
        | _ ->
            if r.a_races > 0 then
              fail "%s: %d spurious race(s)" r.a_name r.a_races);
        if r.a_loops.l_regressed > 0 then
          fail "%s: interval fallback lost %d syntactically bounded loop(s)"
            r.a_name r.a_loops.l_regressed;
        match r.a_name with
        | "jpeg-unrestricted" ->
            if r.a_compliant then fail "jpeg-unrestricted: should flag"
        | "jpeg-restricted" ->
            if not r.a_compliant then fail "jpeg-restricted: should be clean"
        | "interval-only" ->
            if r.a_loops.l_interval <= r.a_loops.l_syntactic then
              fail "interval-only: fallback bounded no extra loop";
            if not r.a_compliant then fail "interval-only: should be clean"
        | _ -> ())
      reports;
    if !failed then exit 1

  let run ~json ~smoke () =
    let reports = reports ~smoke () in
    if json then print_json reports else print_text reports;
    check reports
end

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)
(* ------------------------------------------------------------------ *)

let bechamel () =
  let open Bechamel in
  let width = 32 and height = 24 in
  let image = Workloads.Images.synthetic ~width ~height in
  let make_codec engine source =
    let checked = Mj.Typecheck.check_source ~file:"jpeg.mj" source in
    let elab =
      Javatime.Elaborate.elaborate ~engine ~enforce_policy:false
        ~bounded_memory:false checked ~cls:"JpegCodec"
    in
    fun () -> ignore (Javatime.Elaborate.react elab [| Asr.Domain.int_array image |])
  in
  let unrestricted = Workloads.Jpeg_mj.unrestricted_source ~width ~height () in
  let restricted = Workloads.Jpeg_mj.restricted_source ~width ~height () in
  let test =
    Test.make_grouped ~name:"table1" ~fmt:"%s %s"
      [ Test.make ~name:"vm/unrestricted"
          (Staged.stage (make_codec Javatime.Elaborate.Engine_vm unrestricted));
        Test.make ~name:"vm/restricted"
          (Staged.stage (make_codec Javatime.Elaborate.Engine_vm restricted));
        Test.make ~name:"jit/unrestricted"
          (Staged.stage (make_codec Javatime.Elaborate.Engine_jit unrestricted));
        Test.make ~name:"jit/restricted"
          (Staged.stage (make_codec Javatime.Elaborate.Engine_jit restricted)) ]
  in
  let benchmark () =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:10 ~quota:(Time.second 2.0) ~kde:(Some 10) () in
    Benchmark.all cfg instances test
  in
  let analyze raw =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true
        ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock raw
  in
  let results = analyze (benchmark ()) in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Printf.printf "  %-24s %12.0f ns/reaction\n" name est
      | _ -> Printf.printf "  %-24s (no estimate)\n" name)
    results

(* ------------------------------------------------------------------ *)
(* Telemetry: exact profile reconciliation, exporter validity, and     *)
(* instrumentation overhead (enabled vs disabled sink).                *)
(* ------------------------------------------------------------------ *)

module Telemetry_bench = struct
  module J = Telemetry.Json

  type recon_row = {
    t_workload : string;
    t_engine : string;
    t_cycles : int;  (* Cost.cycles after init + all reactions *)
    t_profile_total : int;  (* what the sink-fed profile attributed *)
    t_methods : int;
    t_top : (string * int) list;  (* top methods by self cycles *)
  }

  type overhead_row = {
    o_workload : string;
    o_engine : string;
    o_reactions : int;
    o_disabled_s : float;
    o_enabled_s : float;
  }

  type netgen_row = {
    n_name : string;
    n_blocks : int;
    n_instants : int;
    n_evals : int;
    n_spans : int;
    n_reconciles : bool;  (* registry counters == simulator totals *)
    n_disabled_s : float;
    n_enabled_s : float;
  }

  type report = {
    recon : recon_row list;
    overhead : overhead_row list;
    netgen : netgen_row list;
    trace_events : int;
    trace_valid : bool;
    vcd_ok : bool;
  }

  (* Same two workloads the boundscheck bench uses: the SFR-refined FIR
     (many small reactions) and the restricted JPEG codec (one large
     reaction). *)
  let drive ~engine ?profile ?lines (w : Boundscheck.workload) =
    let checked =
      Mj.Typecheck.check_source ~file:(w.Boundscheck.b_name ^ ".mj")
        w.Boundscheck.b_source
    in
    let cost_sink = Option.map Mj_runtime.Cost.profile_sink profile in
    let elab =
      Javatime.Elaborate.elaborate ~engine ~enforce_policy:false
        ~bounded_memory:false ?cost_sink ?cost_lines:lines checked
        ~cls:w.Boundscheck.b_cls
    in
    List.iter
      (fun inputs -> ignore (Javatime.Elaborate.react elab inputs))
      w.Boundscheck.b_inputs;
    Javatime.Elaborate.total_cycles elab

  let engines =
    [ ("interp", Javatime.Elaborate.Engine_interp);
      ("vm", Javatime.Elaborate.Engine_vm);
      ("jit", Javatime.Elaborate.Engine_jit) ]

  let reconcile ~smoke () =
    List.concat_map
      (fun w ->
        List.map
          (fun (label, engine) ->
            let profile = Telemetry.Profile.create () in
            let cycles = drive ~engine ~profile w in
            let top =
              List.filteri (fun i _ -> i < 3) (Telemetry.Profile.by_self profile)
              |> List.map (fun r ->
                     (r.Telemetry.Profile.r_label, r.Telemetry.Profile.r_self))
            in
            { t_workload = w.Boundscheck.b_name;
              t_engine = label;
              t_cycles = cycles;
              t_profile_total = Telemetry.Profile.total profile;
              t_methods = List.length (Telemetry.Profile.rows profile) - 1;
              t_top = top })
          engines)
      (Boundscheck.workloads ~smoke ())

  let wall f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0

  let measure_overhead ~smoke () =
    List.map
      (fun w ->
        let disabled = wall (fun () -> ignore (drive ~engine:Javatime.Elaborate.Engine_vm w)) in
        let enabled =
          wall (fun () ->
              let profile = Telemetry.Profile.create () in
              ignore (drive ~engine:Javatime.Elaborate.Engine_vm ~profile w))
        in
        { o_workload = w.Boundscheck.b_name;
          o_engine = "vm";
          o_reactions = List.length w.Boundscheck.b_inputs;
          o_disabled_s = disabled;
          o_enabled_s = enabled })
      (Boundscheck.workloads ~smoke ())

  (* ASR-level telemetry on generated nets: the per-instant span/counter
     machinery must reconcile exactly with the simulator's own totals at
     any net size, and the disabled registry must stay one branch per
     reaction. *)
  let netgen_rows ~smoke () =
    let sizes = if smoke then [ 50 ] else [ 200; 2_000 ] in
    let instants = if smoke then 10 else 100 in
    List.map
      (fun size ->
        let width = min size 25 in
        let depth = max 1 (size / width) in
        let g =
          Workloads.Netgen.generate ~inputs:4 ~delays:4 ~cyclic_ratio:0.04
            ~seed:(331 + size) ~depth ~width ()
        in
        let compiled = Asr.Graph.compile g in
        let stream = Workloads.Netgen.stimulus g ~instants in
        let run ?telemetry () =
          let sim =
            Asr.Simulate.create ~strategy:Asr.Fixpoint.Fused ?telemetry g
          in
          let t0 = Unix.gettimeofday () in
          List.iter (fun inputs -> ignore (Asr.Simulate.step sim inputs)) stream;
          (Unix.gettimeofday () -. t0, Asr.Simulate.block_evaluations sim)
        in
        let disabled_s, evals_off = run () in
        let reg = Telemetry.Registry.create () in
        let enabled_s, evals = run ~telemetry:reg () in
        let cval name =
          (Telemetry.Registry.counter reg name).Telemetry.Registry.c_value
        in
        { n_name =
            Printf.sprintf "netgen-%d" (Array.length compiled.Asr.Graph.c_blocks);
          n_blocks = Array.length compiled.Asr.Graph.c_blocks;
          n_instants = instants;
          n_evals = evals;
          n_spans = List.length (Telemetry.Registry.spans reg);
          n_reconciles =
            evals = evals_off
            && cval "asr.instants" = instants
            && cval "asr.block_evaluations" = evals
            && List.length (Telemetry.Registry.spans reg) = instants;
          n_disabled_s = disabled_s;
          n_enabled_s = enabled_s })
      sizes

  (* Chrome-trace validity: profile the FIR workload with span recording,
     export, parse the JSON back and structurally check the events. *)
  let trace_roundtrip ~smoke () =
    let w =
      List.find
        (fun w -> w.Boundscheck.b_name = "fir-refined")
        (Boundscheck.workloads ~smoke ())
    in
    let reg = Telemetry.Registry.create () in
    let profile = Telemetry.Profile.create ~spans:reg () in
    ignore (drive ~engine:Javatime.Elaborate.Engine_vm ~profile w);
    let text = Telemetry.Export.chrome_trace reg in
    match J.parse text with
    | exception J.Parse_error _ -> (0, false)
    | parsed -> (
        match J.member "traceEvents" parsed with
        | Some (J.List events) ->
            let well_formed ev =
              let has k =
                match J.member k ev with Some _ -> true | None -> false
              in
              has "name" && has "ph" && has "ts" && has "dur" && has "pid"
              && has "tid"
            in
            (List.length events, events <> [] && List.for_all well_formed events)
        | _ -> (0, false))

  let vcd_smoke () =
    let open Asr in
    let vcd =
      Waves.signals_to_vcd
        [ ("x", [ Domain.int 1; Domain.int 2; Domain.Bottom ]);
          ("go", [ Domain.bool true; Domain.bool false; Domain.bool false ]) ]
    in
    String.length vcd > 0
    && String.sub vcd 0 10 = "$timescale"
    && String.index_opt vcd 'x' <> None

  let report ~smoke () =
    let trace_events, trace_valid = trace_roundtrip ~smoke () in
    { recon = reconcile ~smoke ();
      overhead = measure_overhead ~smoke ();
      netgen = netgen_rows ~smoke ();
      trace_events;
      trace_valid;
      vcd_ok = vcd_smoke () }

  let overhead_pct r =
    if r.o_disabled_s <= 0.0 then 0.0
    else 100.0 *. (r.o_enabled_s -. r.o_disabled_s) /. r.o_disabled_s

  let print_text r =
    print_endline
      "Telemetry: deterministic profiling reconciles exactly with Cost.cycles";
    print_newline ();
    List.iter
      (fun row ->
        Printf.printf "  %-16s %-7s %12d cycles  profile %12d  %s\n"
          row.t_workload row.t_engine row.t_cycles row.t_profile_total
          (if row.t_cycles = row.t_profile_total then "exact" else "DRIFT");
        List.iter
          (fun (label, self) -> Printf.printf "      %-28s %12d self\n" label self)
          row.t_top)
      r.recon;
    print_newline ();
    List.iter
      (fun o ->
        Printf.printf
          "  overhead %-16s %-4s %4d reaction(s): %.4fs off, %.4fs on (%+.1f%%)\n"
          o.o_workload o.o_engine o.o_reactions o.o_disabled_s o.o_enabled_s
          (overhead_pct o))
      r.overhead;
    List.iter
      (fun n ->
        Printf.printf
          "  asr %-12s %4d instants %9d evals %4d spans: %s (%.4fs off, \
           %.4fs on)\n"
          n.n_name n.n_instants n.n_evals n.n_spans
          (if n.n_reconciles then "reconcile" else "DRIFT (BUG)")
          n.n_disabled_s n.n_enabled_s)
      r.netgen;
    Printf.printf "  chrome trace: %d events, %s\n" r.trace_events
      (if r.trace_valid then "parses and is well-formed" else "INVALID");
    Printf.printf "  vcd: %s\n" (if r.vcd_ok then "ok" else "INVALID")

  let print_json r =
    let recon_json row =
      J.Obj
        [ ("workload", J.Str row.t_workload);
          ("engine", J.Str row.t_engine);
          ("cycles", J.Int row.t_cycles);
          ("profile_total", J.Int row.t_profile_total);
          ("equal", J.Bool (row.t_cycles = row.t_profile_total));
          ("methods", J.Int row.t_methods);
          ( "top_self",
            J.List
              (List.map
                 (fun (label, self) ->
                   J.Obj [ ("method", J.Str label); ("self", J.Int self) ])
                 row.t_top) ) ]
    in
    let overhead_json o =
      J.Obj
        [ ("workload", J.Str o.o_workload);
          ("engine", J.Str o.o_engine);
          ("reactions", J.Int o.o_reactions);
          ("disabled_wall_s", J.Float o.o_disabled_s);
          ("enabled_wall_s", J.Float o.o_enabled_s);
          ("overhead_pct", J.Float (overhead_pct o)) ]
    in
    let netgen_json n =
      J.Obj
        [ ("workload", J.Str n.n_name);
          ("blocks", J.Int n.n_blocks);
          ("instants", J.Int n.n_instants);
          ("evaluations", J.Int n.n_evals);
          ("spans", J.Int n.n_spans);
          ("reconciles", J.Bool n.n_reconciles);
          ("disabled_wall_s", J.Float n.n_disabled_s);
          ("enabled_wall_s", J.Float n.n_enabled_s) ]
    in
    print_endline
      (J.to_string
         (J.Obj
            [ ("bench", J.Str "telemetry");
              ("reconcile", J.List (List.map recon_json r.recon));
              ("overhead", J.List (List.map overhead_json r.overhead));
              ("asr_netgen", J.List (List.map netgen_json r.netgen));
              ( "chrome_trace",
                J.Obj
                  [ ("events", J.Int r.trace_events);
                    ("valid", J.Bool r.trace_valid) ] );
              ("vcd_ok", J.Bool r.vcd_ok) ]))

  (* Smoke contract: every engine/workload pair reconciles to the cycle,
     the Chrome trace parses back well-formed, the VCD smoke passes. *)
  let check r =
    let failed = ref false in
    List.iter
      (fun row ->
        if row.t_cycles <> row.t_profile_total then begin
          Printf.eprintf "FAIL %s/%s: profile %d != cycles %d\n" row.t_workload
            row.t_engine row.t_profile_total row.t_cycles;
          failed := true
        end)
      r.recon;
    List.iter
      (fun n ->
        if not n.n_reconciles then begin
          Printf.eprintf
            "FAIL %s: asr telemetry counters drifted from the simulator\n"
            n.n_name;
          failed := true
        end)
      r.netgen;
    if not r.trace_valid then begin
      Printf.eprintf "FAIL chrome trace did not parse back well-formed\n";
      failed := true
    end;
    if not r.vcd_ok then begin
      Printf.eprintf "FAIL vcd export smoke\n";
      failed := true
    end;
    if !failed then exit 1

  let run ~json ~smoke () =
    let r = report ~smoke () in
    if json then print_json r else print_text r;
    check r
end

(* ------------------------------------------------------------------ *)
(* Line profiling: per-line attribution reconciles exactly with        *)
(* Cost.cycles on every engine, the modeled cycle counts are identical *)
(* with attribution on and off (the disabled path is free in the cost  *)
(* model), and the wall-clock overhead of both paths is reported.      *)
(* ------------------------------------------------------------------ *)

module Lineprof_bench = struct
  module J = Telemetry.Json

  type row = {
    l_workload : string;
    l_engine : string;
    l_cycles_off : int;  (* Cost.cycles without a line table *)
    l_cycles_on : int;   (* Cost.cycles with attribution enabled *)
    l_lines_total : int; (* what the line table attributed *)
    l_rows : int;        (* distinct (file, line) rows *)
    l_top : (string * int * int) list;  (* (file, line, cycles) *)
    l_off_wall : float;
    l_on_wall : float;
  }

  let measure ~smoke () =
    List.concat_map
      (fun w ->
        List.map
          (fun (label, engine) ->
            let cycles_off = ref 0 and cycles_on = ref 0 in
            let lt = Telemetry.Lines.create () in
            let off_wall =
              Telemetry_bench.wall (fun () ->
                  cycles_off := Telemetry_bench.drive ~engine w)
            in
            let on_wall =
              Telemetry_bench.wall (fun () ->
                  cycles_on := Telemetry_bench.drive ~engine ~lines:lt w)
            in
            let top =
              List.filteri (fun i _ -> i < 3) (Telemetry.Lines.by_cycles lt)
              |> List.map (fun e ->
                     Telemetry.Lines.
                       (e.e_file, e.e_line, e.e_cycles))
            in
            { l_workload = w.Boundscheck.b_name;
              l_engine = label;
              l_cycles_off = !cycles_off;
              l_cycles_on = !cycles_on;
              l_lines_total = Telemetry.Lines.total lt;
              l_rows = List.length (Telemetry.Lines.rows lt);
              l_top = top;
              l_off_wall = off_wall;
              l_on_wall = on_wall })
          Telemetry_bench.engines)
      (Boundscheck.workloads ~smoke ())

  let overhead_pct r =
    if r.l_off_wall <= 0.0 then 0.0
    else 100.0 *. (r.l_on_wall -. r.l_off_wall) /. r.l_off_wall

  let print_text rows =
    print_endline
      "Line profiling: per-line attribution reconciles exactly with \
       Cost.cycles";
    print_newline ();
    List.iter
      (fun r ->
        Printf.printf
          "  %-16s %-7s %12d cycles  lines %12d (%4d rows)  %s%s\n"
          r.l_workload r.l_engine r.l_cycles_on r.l_lines_total r.l_rows
          (if r.l_lines_total = r.l_cycles_on then "exact" else "DRIFT")
          (if r.l_cycles_on = r.l_cycles_off then "" else " COST-CHANGED");
        List.iter
          (fun (file, line, cycles) ->
            Printf.printf "      %s:%-5d %12d\n" file line cycles)
          r.l_top;
        Printf.printf
          "      wall: %.4fs off, %.4fs on (%+.1f%%)\n" r.l_off_wall
          r.l_on_wall (overhead_pct r))
      rows

  let print_json rows =
    let row_json r =
      J.Obj
        [ ("workload", J.Str r.l_workload);
          ("engine", J.Str r.l_engine);
          ("cycles", J.Int r.l_cycles_off);
          ("cycles_lines_enabled", J.Int r.l_cycles_on);
          ("cost_model_unchanged", J.Bool (r.l_cycles_on = r.l_cycles_off));
          ("lines_total", J.Int r.l_lines_total);
          ("reconciles", J.Bool (r.l_lines_total = r.l_cycles_on));
          ("rows", J.Int r.l_rows);
          ( "top_lines",
            J.List
              (List.map
                 (fun (file, line, cycles) ->
                   J.Obj
                     [ ("file", J.Str file); ("line", J.Int line);
                       ("cycles", J.Int cycles) ])
                 r.l_top) );
          ("disabled_wall_s", J.Float r.l_off_wall);
          ("enabled_wall_s", J.Float r.l_on_wall);
          ("overhead_pct", J.Float (overhead_pct r)) ]
    in
    print_endline
      (J.to_string
         (J.Obj
            [ ("bench", J.Str "lineprof");
              ("rows", J.List (List.map row_json rows)) ]))

  (* Smoke contract: attribution reconciles to the cycle on every
     engine/workload pair, and enabling it never changes the modeled
     cycle count (so PR-level cycle baselines remain comparable). *)
  let check rows =
    let failed = ref false in
    List.iter
      (fun r ->
        if r.l_lines_total <> r.l_cycles_on then begin
          Printf.eprintf "FAIL %s/%s: line table %d != cycles %d\n"
            r.l_workload r.l_engine r.l_lines_total r.l_cycles_on;
          failed := true
        end;
        if r.l_cycles_on <> r.l_cycles_off then begin
          Printf.eprintf
            "FAIL %s/%s: enabling line profiling changed modeled cycles \
             (%d -> %d)\n"
            r.l_workload r.l_engine r.l_cycles_off r.l_cycles_on;
          failed := true
        end;
        if r.l_rows < 2 then begin
          Printf.eprintf "FAIL %s/%s: only %d line rows attributed\n"
            r.l_workload r.l_engine r.l_rows;
          failed := true
        end)
      rows;
    if !failed then exit 1

  let run ~json ~smoke () =
    let rows = measure ~smoke () in
    if json then print_json rows else print_text rows;
    check rows
end

(* ------------------------------------------------------------------ *)
(* Fault-injection campaign: supervisor containment and degradation    *)
(* ------------------------------------------------------------------ *)

(* Three claims, checked bit-for-bit rather than statistically:

   1. Containment: injecting faults into chosen blocks of an ASR graph
      perturbs only the nets inside [Graph.affected_nets] of those
      blocks — every net outside the blast radius takes exactly the
      per-instant value of the fault-free run, under every containment
      policy.
   2. Determinism: a fixed injection seed reproduces the same traces
      and the same fault log run after run, and a transient
      first-application glitch absorbed by [Retry] leaves the whole
      trace bit-identical to the fault-free one.
   3. Zero-cost disablement: with no supervisor attached, the modeled
      cycle counts of the MJ workloads are unchanged — against fresh
      in-process controls (ample budget armed, ample heap limit armed)
      and, when [--baseline BENCH_lineprof.json] points at the
      committed pre-supervisor artifact, against that artifact exactly
      (full-size runs only; --smoke uses scaled-down workloads). *)

module Faults_bench = struct
  module D = Asr.Domain
  module G = Asr.Graph
  module S = Asr.Supervisor
  module I = Asr.Inject
  module J = Telemetry.Json
  module E = Javatime.Elaborate

  (* ---- part 1/2: ASR graph campaign -------------------------------- *)

  type asr_row = {
    a_workload : string;
    a_policy : string;
    a_first_only : bool;
    a_seed : int;
    a_blocks : int;
    a_nets : int;
    a_instants : int;
    a_specs : string list;
    a_injected : int;  (* faults actually raised by the injector *)
    a_contained : int;
    a_recovered : int;
    a_quarantined : int;
    a_affected : int;  (* nets inside the blast radius *)
    a_checked : int;  (* (instant, net) pairs compared outside it *)
    a_contained_ok : bool;  (* outside nets identical to fault-free run *)
    a_deterministic : bool;  (* same seed -> same nets + fault log *)
    a_fully_identical : bool;  (* whole trace equals the fault-free one *)
  }

  let graphs ~smoke () =
    let scale n small = if smoke then small else n in
    [ ("fir", Sched_bench.fir_graph (scale 32 8), scale 60 12);
      ("jpeg-pipeline", Sched_bench.pipeline_graph (scale 24 6), scale 60 12);
      ("cyclic", Sched_bench.cyclic_graph (scale 8 3), scale 60 12);
      ( "random",
        Sched_bench.random_graph ~seed:7 ~inputs:3 ~layers:(scale 8 3)
          ~per_layer:(scale 12 4) ~delays:3,
        scale 60 12 );
      (* Structured random nets (delays + a few cycles) widen the
         campaign beyond the hand-built topologies. *)
      ( "netgen",
        Workloads.Netgen.generate ~inputs:3 ~delays:2 ~cyclic_ratio:0.1
          ~seed:23 ~depth:(scale 7 3) ~width:(scale 10 4) (),
        scale 60 12 ) ]

  (* Drive one instant at a time, capturing each instant's whole fixed
     point (not just the output ports) — the containment property
     quantifies over nets. *)
  let run_capture ?supervisor ?inject g stream =
    let sim = Asr.Simulate.create ?supervisor g in
    List.map
      (fun inputs ->
        ignore (Asr.Simulate.step sim inputs);
        (match inject with Some inj -> I.tick inj | None -> ());
        Asr.Simulate.net_values sim)
      stream

  let campaign_row (name, g, instants) ~policy ~first_only ~seed =
    let compiled = G.compile g in
    let n_blocks = Array.length compiled.G.c_blocks in
    let stream = Sched_bench.stimulus g ~instants in
    let clean = run_capture g stream in
    let specs = I.plan ~seed ~n_blocks ~instants ~n_faults:2 ~first_only () in
    let faulty_run () =
      let inj = I.make specs in
      let sup = S.create ~policy () in
      let nets =
        run_capture ~supervisor:sup ~inject:inj (I.instrument inj g) stream
      in
      (inj, sup, nets)
    in
    let inj, sup, faulty = faulty_run () in
    let inj2, sup2, faulty2 = faulty_run () in
    let affected = Array.make compiled.G.n_nets false in
    List.iter
      (fun s ->
        Array.iteri
          (fun i b -> if b then affected.(i) <- true)
          (G.affected_nets compiled s.I.i_block))
      specs;
    let checked = ref 0 and contained_ok = ref true in
    List.iter2
      (fun clean_nets faulty_nets ->
        Array.iteri
          (fun n v ->
            if not affected.(n) then begin
              incr checked;
              if v <> faulty_nets.(n) then contained_ok := false
            end)
          clean_nets)
      clean faulty;
    { a_workload = name;
      a_policy = S.policy_name policy;
      a_first_only = first_only;
      a_seed = seed;
      a_blocks = n_blocks;
      a_nets = compiled.G.n_nets;
      a_instants = instants;
      a_specs = List.map I.spec_to_string specs;
      a_injected = I.fired inj;
      a_contained = S.fault_count sup;
      a_recovered = S.recovered_count sup;
      a_quarantined = List.length (S.quarantined_blocks sup);
      a_affected =
        Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 affected;
      a_checked = !checked;
      a_contained_ok = !contained_ok;
      a_deterministic =
        faulty = faulty2
        && I.fired inj = I.fired inj2
        && S.faults sup = S.faults sup2;
      a_fully_identical = clean = faulty }

  (* A supervisor with nothing to contain must be invisible. *)
  let nofault_identical (name, g, instants) =
    let stream = Sched_bench.stimulus g ~instants in
    let clean = run_capture g stream in
    let sup = S.create () in
    let supervised = run_capture ~supervisor:sup g stream in
    (name, clean = supervised && S.fault_count sup = 0)

  (* The [Retry] rows inject first-application-only glitches, the shape
     that policy exists to absorb; the others inject unconditionally. *)
  let policies =
    [ (S.Hold_last, false); (S.Absent, false); (S.Retry 2, true) ]

  let asr_rows ~smoke () =
    List.concat
      (List.mapi
         (fun wi w ->
           List.mapi
             (fun pi (policy, first_only) ->
               campaign_row w ~policy ~first_only
                 ~seed:(41 + (13 * wi) + (7 * pi)))
             policies)
         (graphs ~smoke ()))

  (* ---- part 3: MJ engine traps under supervision ------------------- *)

  type mj_row = {
    m_engine : string;
    m_trap : string;  (* "budget" | "heap" *)
    m_instants : int;
    m_contained : int;
    m_class_ok : bool;  (* every contained fault has the right class *)
    m_reconciles : bool;  (* line attribution = Cost.cycles after traps *)
    m_next_ok : bool;  (* reaction resumes once the pressure is lifted *)
  }

  (* Blows any small cycle budget: 64 loop iterations per reaction. *)
  let spin_src =
    {|class Spin extends ASR {
        Spin() { declarePorts(1, 1); }
        public void run() {
          int acc = 0;
          int i = 0;
          while (i < 64) { acc = acc + i; i = i + 1; }
          writePort(0, acc + readPort(0));
        }
      }|}

  (* Allocates 34 heap words per reaction; a limit of init+80 words
     admits two reactions and traps from the third on. *)
  let storm_src =
    {|class Storm extends ASR {
        Storm() { declarePorts(1, 1); }
        public void run() {
          int[] a = new int[32];
          a[0] = readPort(0);
          writePort(0, a[0] + 1);
        }
      }|}

  let mj_trap_row ~engine ~label ~trap =
    let src, cls, budget, heap_slack, instants =
      match trap with
      | `Budget -> (spin_src, "Spin", Some 40, None, 5)
      | `Heap -> (storm_src, "Storm", None, Some 80, 6)
    in
    let checked = Mj.Typecheck.check_source ~file:(cls ^ ".mj") src in
    let lines = Telemetry.Lines.create () in
    let elab =
      E.elaborate ~engine ~enforce_policy:false ~bounded_memory:false
        ~cost_lines:lines checked ~cls
    in
    let heap = (E.machine elab).Mj_runtime.Machine.heap in
    (match heap_slack with
    | Some slack ->
        let stats = Mj_runtime.Heap.stats heap in
        Mj_runtime.Heap.set_limit_words heap
          (Some (stats.Mj_runtime.Heap.init_words + slack))
    | None -> ());
    let n_in, n_out = E.ports elab in
    let block =
      Asr.Block.make ~name:("mj:" ^ cls) ~n_in ~n_out (fun inputs ->
          if Array.for_all D.is_def inputs then
            match budget with
            | Some b -> E.react_bounded elab ~budget_cycles:b inputs
            | None -> E.react elab inputs
          else Array.make n_out D.Bottom)
    in
    let g = G.create ("mj-" ^ cls) in
    let b = G.add_block g block in
    let inp = G.add_input g "x" in
    let out = G.add_output g "y" in
    G.connect g ~src:(G.out_port inp 0) ~dst:(G.in_port b 0);
    G.connect g ~src:(G.out_port b 0) ~dst:(G.in_port out 0);
    let sup =
      S.create ~policy:S.Hold_last ~classify:E.fault_classifier ()
    in
    let sim = Asr.Simulate.create ~supervisor:sup g in
    ignore
      (Asr.Simulate.run sim
         (List.init instants (fun t -> [ ("x", D.int t) ])));
    let expected_class =
      match trap with
      | `Budget -> S.Budget_exceeded
      | `Heap -> S.Heap_exhausted
    in
    let class_ok =
      S.fault_count sup > 0
      && List.for_all
           (fun f -> f.S.f_action = S.Escalated || f.S.f_class = expected_class)
           (S.faults sup)
    in
    (* graceful degradation: lift the pressure, the reaction works again *)
    Mj_runtime.Heap.set_limit_words heap None;
    let next_ok =
      match E.react elab [| D.int 1 |] with
      | [| D.Def _ |] -> true
      | _ -> false
      | exception _ -> false
    in
    { m_engine = label;
      m_trap = (match trap with `Budget -> "budget" | `Heap -> "heap");
      m_instants = instants;
      m_contained = S.fault_count sup;
      m_class_ok = class_ok;
      m_reconciles = Telemetry.Lines.total lines = E.total_cycles elab;
      m_next_ok = next_ok }

  let mj_rows () =
    List.concat_map
      (fun (label, engine) ->
        [ mj_trap_row ~engine ~label ~trap:`Budget;
          mj_trap_row ~engine ~label ~trap:`Heap ])
      Telemetry_bench.engines

  (* ---- part 4: supervisor-disabled path is cycle-identical --------- *)

  type dis_row = {
    d_workload : string;
    d_engine : string;
    d_cycles : int;
    d_budget_identical : bool;  (* ample budget armed: same cycles *)
    d_heap_identical : bool;  (* ample heap limit armed: same cycles *)
    d_baseline : int option;  (* committed BENCH_lineprof.json cycles *)
  }

  let drive_mj ~engine ?budget ?heap_limit (w : Boundscheck.workload) =
    let checked =
      Mj.Typecheck.check_source ~file:(w.Boundscheck.b_name ^ ".mj")
        w.Boundscheck.b_source
    in
    let elab =
      E.elaborate ~engine ~enforce_policy:false ~bounded_memory:false
        ?heap_limit_words:heap_limit checked ~cls:w.Boundscheck.b_cls
    in
    List.iter
      (fun inputs ->
        ignore
          (match budget with
          | Some b -> E.react_bounded elab ~budget_cycles:b inputs
          | None -> E.react elab inputs))
      w.Boundscheck.b_inputs;
    E.total_cycles elab

  let baseline_lookup path =
    let ic = open_in_bin path in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let parsed =
      match J.parse text with
      | parsed -> parsed
      | exception J.Parse_error msg ->
          Printf.eprintf "cannot parse baseline %s: %s\n" path msg;
          exit 1
    in
    fun ~workload ~engine ->
      match J.member "rows" parsed with
      | Some (J.List rows) ->
          List.find_map
            (fun r ->
              match
                (J.member "workload" r, J.member "engine" r, J.member "cycles" r)
              with
              | Some (J.Str w), Some (J.Str e), Some (J.Int c)
                when w = workload && e = engine ->
                  Some c
              | _ -> None)
            rows
      | _ -> None

  let disabled_rows ~smoke ~baseline () =
    let lookup =
      match baseline with
      | Some path -> baseline_lookup path
      | None -> fun ~workload:_ ~engine:_ -> None
    in
    List.concat_map
      (fun w ->
        List.map
          (fun (label, engine) ->
            (* ample but not max_int: the budget trip point is computed
               as meter + budget and must not overflow *)
            let plain = drive_mj ~engine w in
            let budgeted = drive_mj ~engine ~budget:(max_int / 2) w in
            let limited = drive_mj ~engine ~heap_limit:(max_int / 2) w in
            { d_workload = w.Boundscheck.b_name;
              d_engine = label;
              d_cycles = plain;
              d_budget_identical = budgeted = plain;
              d_heap_identical = limited = plain;
              d_baseline =
                lookup ~workload:w.Boundscheck.b_name ~engine:label })
          Telemetry_bench.engines)
      (Boundscheck.workloads ~smoke ())

  (* ---- report ------------------------------------------------------ *)

  type report = {
    r_asr : asr_row list;
    r_nofault : (string * bool) list;
    r_mj : mj_row list;
    r_disabled : dis_row list;
  }

  let reports ~smoke ~baseline () =
    { r_asr = asr_rows ~smoke ();
      r_nofault = List.map nofault_identical (graphs ~smoke ());
      r_mj = mj_rows ();
      r_disabled = disabled_rows ~smoke ~baseline () }

  let print_text r =
    print_endline
      "Fault injection: containment outside the blast radius, bit-for-bit";
    print_newline ();
    List.iter
      (fun a ->
        Printf.printf
          "  %-14s %-10s seed %3d  %2d faults  %3d contained %2d recovered \
           %2d quarantined  %5d/%d nets clean  outside %s%s%s\n"
          a.a_workload a.a_policy a.a_seed a.a_injected a.a_contained
          a.a_recovered a.a_quarantined (a.a_nets - a.a_affected) a.a_nets
          (if a.a_contained_ok then "identical" else "DIVERGED (BUG)")
          (if a.a_deterministic then "" else "  NONDETERMINISTIC (BUG)")
          (if a.a_fully_identical then "  (trace fully identical)" else ""))
      r.r_asr;
    print_newline ();
    List.iter
      (fun (w, ok) ->
        Printf.printf "  %-14s supervised no-fault run: %s\n" w
          (if ok then "identical to unsupervised" else "DIVERGED (BUG)"))
      r.r_nofault;
    print_newline ();
    List.iter
      (fun m ->
        Printf.printf
          "  mj %-7s %-6s trap  %d contained over %d instants  class %s  \
           lines %s  resume %s\n"
          m.m_engine m.m_trap m.m_contained m.m_instants
          (if m.m_class_ok then "ok" else "WRONG (BUG)")
          (if m.m_reconciles then "reconcile" else "DRIFT (BUG)")
          (if m.m_next_ok then "ok" else "STUCK (BUG)"))
      r.r_mj;
    print_newline ();
    List.iter
      (fun d ->
        Printf.printf
          "  disabled %-16s %-7s %12d cycles  budget-armed %s  heap-armed %s%s\n"
          d.d_workload d.d_engine d.d_cycles
          (if d.d_budget_identical then "identical" else "CHANGED (BUG)")
          (if d.d_heap_identical then "identical" else "CHANGED (BUG)")
          (match d.d_baseline with
          | None -> ""
          | Some b when b = d.d_cycles -> "  baseline identical"
          | Some b -> Printf.sprintf "  BASELINE DRIFT (%d)" b))
      r.r_disabled

  let print_json r =
    let asr_json a =
      J.Obj
        [ ("workload", J.Str a.a_workload);
          ("policy", J.Str a.a_policy);
          ("first_application_only", J.Bool a.a_first_only);
          ("seed", J.Int a.a_seed);
          ("blocks", J.Int a.a_blocks);
          ("nets", J.Int a.a_nets);
          ("instants", J.Int a.a_instants);
          ("specs", J.List (List.map (fun s -> J.Str s) a.a_specs));
          ("injected", J.Int a.a_injected);
          ("contained", J.Int a.a_contained);
          ("recovered", J.Int a.a_recovered);
          ("quarantined", J.Int a.a_quarantined);
          ("affected_nets", J.Int a.a_affected);
          ("checked_pairs", J.Int a.a_checked);
          ("unaffected_identical", J.Bool a.a_contained_ok);
          ("deterministic", J.Bool a.a_deterministic);
          ("trace_fully_identical", J.Bool a.a_fully_identical) ]
    in
    let nofault_json (w, ok) =
      J.Obj
        [ ("workload", J.Str w); ("supervised_nofault_identical", J.Bool ok) ]
    in
    let mj_json m =
      J.Obj
        [ ("engine", J.Str m.m_engine);
          ("trap", J.Str m.m_trap);
          ("instants", J.Int m.m_instants);
          ("contained", J.Int m.m_contained);
          ("class_ok", J.Bool m.m_class_ok);
          ("lines_reconcile", J.Bool m.m_reconciles);
          ("resumes_after_pressure", J.Bool m.m_next_ok) ]
    in
    let dis_json d =
      J.Obj
        ([ ("workload", J.Str d.d_workload);
           ("engine", J.Str d.d_engine);
           ("cycles", J.Int d.d_cycles);
           ("budget_armed_identical", J.Bool d.d_budget_identical);
           ("heap_armed_identical", J.Bool d.d_heap_identical) ]
        @
        match d.d_baseline with
        | None -> []
        | Some b ->
            [ ("baseline_cycles", J.Int b);
              ("baseline_identical", J.Bool (b = d.d_cycles)) ])
    in
    print_endline
      (J.to_string
         (J.Obj
            [ ("bench", J.Str "faults");
              ("campaign", J.List (List.map asr_json r.r_asr));
              ("no_fault", J.List (List.map nofault_json r.r_nofault));
              ("mj_traps", J.List (List.map mj_json r.r_mj));
              ("disabled_path", J.List (List.map dis_json r.r_disabled)) ]))

  (* Smoke contract (wired into `dune runtest` via the faults-smoke
     alias): containment, determinism, retry absorption, trap classes,
     line-table reconciliation across a contained trap, and the
     cycle-identity of the supervisor-disabled path all hold. *)
  let check r =
    let failed = ref false in
    let fail fmt =
      Printf.ksprintf
        (fun s ->
          Printf.eprintf "FAIL %s\n" s;
          failed := true)
        fmt
    in
    List.iter
      (fun a ->
        if a.a_injected = 0 then
          fail "%s/%s: no fault was injected" a.a_workload a.a_policy;
        if not a.a_contained_ok then
          fail "%s/%s: a net outside the blast radius diverged" a.a_workload
            a.a_policy;
        if not a.a_deterministic then
          fail "%s/%s: same seed produced a different trace or fault log"
            a.a_workload a.a_policy;
        if a.a_first_only then begin
          if not a.a_fully_identical then
            fail "%s/%s: retry did not absorb the transient glitch"
              a.a_workload a.a_policy;
          if a.a_recovered = 0 then
            fail "%s/%s: no recovery recorded" a.a_workload a.a_policy
        end
        else if a.a_contained = 0 then
          fail "%s/%s: nothing was contained" a.a_workload a.a_policy)
      r.r_asr;
    if List.fold_left (fun acc a -> acc + a.a_checked) 0 r.r_asr = 0 then
      fail "containment property was vacuous: no net escaped every blast \
            radius";
    List.iter
      (fun (w, ok) ->
        if not ok then
          fail "%s: supervised no-fault run diverged from the unsupervised one"
            w)
      r.r_nofault;
    List.iter
      (fun m ->
        if m.m_contained = 0 then
          fail "mj %s/%s: trap was not contained" m.m_engine m.m_trap;
        if not m.m_class_ok then
          fail "mj %s/%s: contained fault has the wrong class" m.m_engine
            m.m_trap;
        if not m.m_reconciles then
          fail
            "mj %s/%s: line attribution does not reconcile with Cost.cycles \
             after a contained trap"
            m.m_engine m.m_trap;
        if not m.m_next_ok then
          fail "mj %s/%s: reaction did not resume once the pressure was lifted"
            m.m_engine m.m_trap)
      r.r_mj;
    List.iter
      (fun d ->
        if not d.d_budget_identical then
          fail "%s/%s: arming an ample budget changed modeled cycles"
            d.d_workload d.d_engine;
        if not d.d_heap_identical then
          fail "%s/%s: arming an ample heap limit changed modeled cycles"
            d.d_workload d.d_engine;
        match d.d_baseline with
        | Some b when b <> d.d_cycles ->
            fail "%s/%s: disabled path drifted from the committed baseline \
                  (%d -> %d)"
              d.d_workload d.d_engine b d.d_cycles
        | Some _ | None -> ())
      r.r_disabled;
    if !failed then exit 1

  let run ~json ~smoke ~baseline () =
    let r = reports ~smoke ~baseline () in
    if json then print_json r else print_text r;
    check r
end

(* ------------------------------------------------------------------ *)
(* Continuous monitor: always-on overhead vs the fused baseline,      *)
(* sketch accuracy against exact quantiles, shard-merge equivalence,  *)
(* snapshot reconciliation, flight-dump determinism on quarantine     *)
(* ------------------------------------------------------------------ *)

module Monitor_bench = struct
  module J = Telemetry.Json
  module M = Telemetry.Monitor
  module Sk = Telemetry.Sketch
  module R = Telemetry.Recorder
  module G = Asr.Graph
  module S = Asr.Supervisor
  module I = Asr.Inject

  (* ---- overhead: monitor-on vs monitor-off on the fusion xl rows --- *)

  type ov_row = {
    v_name : string;
    v_blocks : int;
    v_nets : int;
    v_instants : int;
    v_evals_off : int;
    v_evals_on : int;
    v_wall_off : float;
    v_wall_on : float;
    v_outputs_equal : bool;
    v_baseline_evals : int option;  (* fused evals from BENCH_fusion.json *)
    v_gate : bool;  (* row participates in the <= 5% wall gate *)
  }

  let overhead_bound_pct = 5.0

  (* Best-of-[passes] wall for both arms, with the arms' passes
     interleaved: the gate compares two nearly identical costs, so a GC
     pause, a scheduler hiccup or a seconds-scale load shift must hit
     both arms alike rather than decide the verdict. Each timed pass
     runs the stream [reps] times (wall reported per stream) — a single
     xl stream is only ~1ms of work, too short for a stable 5%
     verdict. Evaluations and outputs come from one untimed pass each,
     as in [Fusion_bench.measure]. *)
  let measure_pair g stream ~passes ~reps =
    let sim_off = Asr.Simulate.create ~strategy:Asr.Fixpoint.Fused g in
    let sim_on =
      Asr.Simulate.create ~strategy:Asr.Fixpoint.Fused ~monitor:(M.create ()) g
    in
    let arm sim =
      let outputs =
        List.map (fun inputs -> Asr.Simulate.step sim inputs) stream
      in
      let evals = Asr.Simulate.block_evaluations sim in
      Asr.Simulate.reset sim;
      (outputs, evals)
    in
    let off_out, off_evals = arm sim_off in
    let on_out, on_evals = arm sim_on in
    let timed sim =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        List.iter (fun inputs -> ignore (Asr.Simulate.step sim inputs)) stream;
        Asr.Simulate.reset sim
      done;
      let w = Unix.gettimeofday () -. t0 in
      w /. float_of_int reps
    in
    Gc.full_major ();
    let best_off = ref infinity and best_on = ref infinity in
    for p = 1 to passes do
      (* alternate which arm goes first so any cost a pass defers onto
         its successor (GC slices, cache refill) is charged evenly *)
      let w_off, w_on =
        if p land 1 = 0 then begin
          let w_off = timed sim_off in
          let w_on = timed sim_on in
          (w_off, w_on)
        end
        else begin
          let w_on = timed sim_on in
          let w_off = timed sim_off in
          (w_off, w_on)
        end
      in
      if w_off < !best_off then best_off := w_off;
      if w_on < !best_on then best_on := w_on
    done;
    ((off_out, off_evals, !best_off), (on_out, on_evals, !best_on))

  let overhead_row ?baseline ~gate name g ~instants ~passes ~reps =
    let compiled = G.compile g in
    let stream = Sched_bench.stimulus g ~instants in
    let (off_out, off_evals, off_wall), (on_out, on_evals, on_wall) =
      measure_pair g stream ~passes ~reps
    in
    { v_name = name;
      v_blocks = Array.length compiled.G.c_blocks;
      v_nets = compiled.G.n_nets;
      v_instants = instants;
      v_evals_off = off_evals;
      v_evals_on = on_evals;
      v_wall_off = off_wall;
      v_wall_on = on_wall;
      v_outputs_equal = off_out = on_out;
      v_baseline_evals =
        (match baseline with None -> None | Some lookup -> lookup ~name);
      v_gate = gate }

  (* --baseline BENCH_fusion.json: the committed fused evaluation counts
     the monitor-off path must reproduce exactly (full size only). *)
  let fusion_baseline path =
    let ic = open_in_bin path in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let parsed =
      match J.parse text with
      | parsed -> parsed
      | exception J.Parse_error msg ->
          Printf.eprintf "cannot parse baseline %s: %s\n" path msg;
          exit 1
    in
    fun ~name ->
      match J.member "workloads" parsed with
      | Some (J.List rows) ->
          List.find_map
            (fun r ->
              match (J.member "name" r, J.member "strategies" r) with
              | Some (J.Str n), Some (J.List runs) when n = name ->
                  List.find_map
                    (fun run ->
                      match
                        (J.member "label" run, J.member "evaluations" run)
                      with
                      | Some (J.Str "fused"), Some (J.Int e) -> Some e
                      | _ -> None)
                    runs
              | _ -> None)
            rows
      | _ -> None

  let overhead ~smoke ~baseline () =
    let scale n small = if smoke then small else n in
    let lookup = Option.map fusion_baseline baseline in
    (* same topologies, sizes and stimulus as the fusion xl rows, so the
       baseline evaluation counts line up exactly *)
    [ overhead_row ?baseline:lookup ~gate:(not smoke) "fir-xl"
        (Sched_bench.fir_graph (scale 512 16))
        ~instants:(scale 200 20) ~passes:(scale 20 3) ~reps:(scale 5 1);
      overhead_row ?baseline:lookup ~gate:(not smoke) "jpeg-pipeline-xl"
        (Sched_bench.pipeline_graph (scale 320 12))
        ~instants:(scale 200 20) ~passes:(scale 20 3) ~reps:(scale 10 1) ]

  let overhead_pct v =
    if v.v_wall_off <= 0.0 then 0.0
    else 100.0 *. (v.v_wall_on -. v.v_wall_off) /. v.v_wall_off

  (* ---- sketch accuracy and shard-merge equivalence on generated nets *)

  type q_row = { q_q : float; q_exact : float; q_est : float; q_rel : float }

  type acc_row = {
    k_name : string;
    k_blocks : int;
    k_instants : int;
    k_stream : string;  (* which per-instant measurement *)
    k_alpha : float;
    k_count : int;
    k_quantiles : q_row list;
    k_within_bound : bool;
  }

  type mg_row = {
    g_name : string;
    g_shards : int;
    g_values : int;
    g_equal : bool;  (* Sketch.equal: merged shards vs single sketch *)
    g_quantiles_identical : bool;
  }

  (* Monitored run of a generated net with [recorder_capacity = instants]
     and [churn_every = 1]: the flight ring then retains the exact
     per-instant streams the sketches summarized, so exact quantiles
     need no side channel. *)
  let netgen_run ~size ~instants =
    let width = min size 25 in
    let depth = max 1 (size / width) in
    let g =
      Workloads.Netgen.generate ~inputs:4 ~delays:4 ~cyclic_ratio:0.04
        ~seed:(911 + size) ~depth ~width ()
    in
    let compiled = G.compile g in
    let mon = M.create ~recorder_capacity:(max 1 instants) ~churn_every:1 () in
    let sim = Asr.Simulate.create ~strategy:Asr.Fixpoint.Fused ~monitor:mon g in
    List.iter
      (fun inputs -> ignore (Asr.Simulate.step sim inputs))
      (Workloads.Netgen.stimulus g ~instants);
    (Array.length compiled.G.c_blocks, mon, R.records (M.recorder mon))

  (* the value at rank floor(q * (count - 1)) — the same rank convention
     [Sketch.quantile] documents *)
  let exact_quantile sorted q =
    sorted.(int_of_float (q *. float_of_int (Array.length sorted - 1)))

  let quantile_probes = [ 0.5; 0.95; 0.99 ]

  let accuracy_check ~name ~blocks ~instants ~stream sk values =
    let sorted = Array.of_list values in
    Array.sort compare sorted;
    let sorted = Array.map float_of_int sorted in
    let quantiles =
      List.map
        (fun q ->
          let exact = exact_quantile sorted q in
          let est = Sk.quantile sk q in
          let rel =
            if exact = 0.0 then if est = 0.0 then 0.0 else infinity
            else Float.abs (est -. exact) /. exact
          in
          { q_q = q; q_exact = exact; q_est = est; q_rel = rel })
        quantile_probes
    in
    let alpha = Sk.alpha sk in
    { k_name = name;
      k_blocks = blocks;
      k_instants = instants;
      k_stream = stream;
      k_alpha = alpha;
      k_count = Sk.count sk;
      k_quantiles = quantiles;
      k_within_bound =
        Sk.count sk = List.length values
        && List.for_all (fun r -> r.q_rel <= alpha +. 1e-9) quantiles }

  let merge_shards = 4

  let merge_check ~name values =
    let single = Sk.create () in
    List.iter (Sk.add single) values;
    let parts = Array.init merge_shards (fun _ -> Sk.create ()) in
    List.iteri (fun i v -> Sk.add parts.(i mod merge_shards) v) values;
    let merged = Sk.create () in
    Array.iter (fun p -> Sk.merge ~into:merged p) parts;
    { g_name = name;
      g_shards = merge_shards;
      g_values = List.length values;
      g_equal = Sk.equal merged single;
      g_quantiles_identical =
        List.for_all
          (fun q -> Sk.quantile merged q = Sk.quantile single q)
          [ 0.0; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 1.0 ] }

  let scaling ~smoke () =
    let sizes = if smoke then [ 50 ] else [ 100; 1_000; 10_000 ] in
    let instants = if smoke then 10 else 100 in
    List.fold_left
      (fun (accs, merges) size ->
        let blocks, mon, records = netgen_run ~size ~instants in
        let name = Printf.sprintf "netgen-%d" blocks in
        let evals = List.map (fun r -> r.R.r_block_evals) records in
        let churn = List.map (fun r -> r.R.r_net_churn) records in
        (* end-to-end: the monitor's own evals sketch vs the exact
           stream it was fed; plus a churn sketch built here, covering a
           stream with zeros and a different dynamic range *)
        let churn_sk = Sk.create () in
        List.iter (fun c -> Sk.add churn_sk (float_of_int c)) churn;
        let acc_evals =
          accuracy_check ~name ~blocks ~instants ~stream:"block_evals"
            (M.evals mon) evals
        in
        let acc_churn =
          accuracy_check ~name ~blocks ~instants ~stream:"net_churn" churn_sk
            churn
        in
        let merge =
          merge_check ~name
            (List.concat_map
               (fun r ->
                 [ float_of_int r.R.r_block_evals;
                   float_of_int r.R.r_net_churn;
                   float_of_int r.R.r_iterations ])
               records)
        in
        (accs @ [ acc_evals; acc_churn ], merges @ [ merge ]))
      ([], []) sizes

  (* ---- snapshot reconciliation ------------------------------------- *)

  type snap_row = {
    p_workload : string;
    p_instants : int;
    p_snapshots : int;
    p_lines_valid : bool;  (* every NDJSON line parses back *)
    p_monotone_ok : bool;  (* cumulative counters never decrease *)
    p_reconciles : bool;  (* monitor cumulatives == registry totals *)
  }

  let snapshot_row ~smoke () =
    let taps = if smoke then 8 else 32 in
    let instants = if smoke then 16 else 80 in
    let g = Sched_bench.fir_graph taps in
    let compiled = G.compile g in
    let specs =
      I.plan ~seed:77
        ~n_blocks:(Array.length compiled.G.c_blocks)
        ~instants ~n_faults:2 ~first_only:false ()
    in
    let inj = I.make specs in
    let reg = Telemetry.Registry.create () in
    let sup = S.create ~policy:S.Hold_last ~telemetry:reg () in
    let lines = ref [] in
    let mon =
      M.create ~snapshot_every:8 ~snapshot_sink:(fun l -> lines := l :: !lines)
        ()
    in
    let sim =
      Asr.Simulate.create ~strategy:Asr.Fixpoint.Fused ~telemetry:reg
        ~supervisor:sup ~monitor:mon (I.instrument inj g)
    in
    List.iter
      (fun inputs ->
        ignore (Asr.Simulate.step sim inputs);
        I.tick inj)
      (Sched_bench.stimulus g ~instants);
    let lines = List.rev !lines in
    let parsed =
      List.map (fun l -> try Some (J.parse l) with J.Parse_error _ -> None) lines
    in
    let ints key j =
      match J.member key j with Some (J.Int n) -> n | _ -> -1
    in
    let monotone =
      let rec go prev = function
        | [] -> true
        | Some j :: rest ->
            let cur =
              (ints "instants" j, ints "block_evaluations" j, ints "faults" j)
            in
            cur >= prev && go cur rest
        | None :: _ -> false
      in
      go (0, 0, 0) parsed
    in
    let cval name = (Telemetry.Registry.counter reg name).Telemetry.Registry.c_value in
    { p_workload = Printf.sprintf "fir%d" taps;
      p_instants = instants;
      p_snapshots = M.snapshots_emitted mon;
      p_lines_valid =
        List.length lines = M.snapshots_emitted mon
        && List.for_all Option.is_some parsed;
      p_monotone_ok = monotone;
      p_reconciles =
        M.instants mon = instants
        && cval "asr.instants" = instants
        && M.cum_block_evals mon = cval "asr.block_evaluations"
        && M.cum_faults mon = cval "asr.supervisor.faults"
        && M.cum_faults mon > 0 }

  (* ---- flight-dump determinism on quarantine escalation ------------ *)

  type dump_row = {
    f_workload : string;
    f_escalate_after : int;
    f_quarantine_ok : bool;  (* the watchdog actually escalated *)
    f_dump_deterministic : bool;  (* fixed seed => bit-identical dumps *)
    f_covers_streak_ok : bool;  (* dump spans the K faulty instants *)
  }

  let dump_run ~taps ~instants ~escalate_after =
    let g = Sched_bench.fir_graph taps in
    (* one persistent trap: faults every instant from 5 on, so the
       watchdog escalates after exactly [escalate_after] instants *)
    let inj =
      I.make
        [ { I.i_block = 3;
            i_kind = I.Trap;
            i_instant = 5;
            i_persistence = I.Persistent;
            i_first_only = false } ]
    in
    let sup = S.create ~policy:S.Hold_last ~escalate_after () in
    let dumps = ref [] in
    let mon = M.create ~dump_sink:(fun d -> dumps := d :: !dumps) () in
    let sim =
      Asr.Simulate.create ~strategy:Asr.Fixpoint.Fused ~supervisor:sup
        ~monitor:mon (I.instrument inj g)
    in
    List.iter
      (fun inputs ->
        ignore (Asr.Simulate.step sim inputs);
        I.tick inj)
      (Sched_bench.stimulus g ~instants);
    (mon, List.rev_map J.to_string !dumps)

  let dump_row ~smoke () =
    let taps = if smoke then 8 else 32 in
    let instants = if smoke then 12 else 40 in
    let escalate_after = 3 in
    let mon, dumps = dump_run ~taps ~instants ~escalate_after in
    let _, dumps2 = dump_run ~taps ~instants ~escalate_after in
    let faulty_records =
      List.length
        (List.filter (fun r -> r.R.r_faults > 0) (R.records (M.recorder mon)))
    in
    let quarantined =
      List.exists
        (fun h -> h.M.h_quarantined && h.M.h_max_streak >= escalate_after)
        (M.health mon)
    in
    { f_workload = Printf.sprintf "fir%d" taps;
      f_escalate_after = escalate_after;
      f_quarantine_ok = quarantined && M.last_dump mon <> None;
      f_dump_deterministic = dumps <> [] && dumps = dumps2;
      f_covers_streak_ok = faulty_records >= escalate_after }

  (* ---- report ------------------------------------------------------ *)

  type report = {
    r_overhead : ov_row list;
    r_accuracy : acc_row list;
    r_merge : mg_row list;
    r_snapshot : snap_row list;
    r_dump : dump_row list;
  }

  let reports ~smoke ~baseline () =
    let accuracy, merge = scaling ~smoke () in
    { r_overhead = overhead ~smoke ~baseline ();
      r_accuracy = accuracy;
      r_merge = merge;
      r_snapshot = [ snapshot_row ~smoke () ];
      r_dump = [ dump_row ~smoke () ] }

  let print_text r =
    print_endline
      "Continuous monitor: bounded-memory observability at fused-path cost";
    print_newline ();
    List.iter
      (fun v ->
        Printf.printf
          "  %-18s %5d blocks %5d nets %4d instants  off %.6fs on %.6fs \
           (%+.2f%%)  outputs %s  evals %s%s\n"
          v.v_name v.v_blocks v.v_nets v.v_instants v.v_wall_off v.v_wall_on
          (overhead_pct v)
          (if v.v_outputs_equal then "identical" else "DIVERGED (BUG)")
          (if v.v_evals_off = v.v_evals_on then "identical" else "CHANGED (BUG)")
          (match v.v_baseline_evals with
          | None -> ""
          | Some b when b = v.v_evals_off -> "  baseline identical"
          | Some b -> Printf.sprintf "  BASELINE DRIFT (%d)" b))
      r.r_overhead;
    print_newline ();
    List.iter
      (fun k ->
        Printf.printf "  %-14s %-12s alpha %.3f  %4d values  %s\n" k.k_name
          k.k_stream k.k_alpha k.k_count
          (if k.k_within_bound then "within bound" else "OUT OF BOUND (BUG)");
        List.iter
          (fun q ->
            Printf.printf "      p%-4g exact %10.1f  est %12.2f  rel %.5f\n"
              (100.0 *. q.q_q) q.q_exact q.q_est q.q_rel)
          k.k_quantiles)
      r.r_accuracy;
    print_newline ();
    List.iter
      (fun m ->
        Printf.printf
          "  merge %-14s %d shards over %5d values: %s, quantiles %s\n"
          m.g_name m.g_shards m.g_values
          (if m.g_equal then "bucket-identical" else "DIVERGED (BUG)")
          (if m.g_quantiles_identical then "identical" else "DIVERGED (BUG)"))
      r.r_merge;
    List.iter
      (fun p ->
        Printf.printf
          "  snapshots %-10s %d instants, %d emitted: %s, %s, %s\n"
          p.p_workload p.p_instants p.p_snapshots
          (if p.p_lines_valid then "all parse" else "UNPARSEABLE (BUG)")
          (if p.p_monotone_ok then "monotone" else "NON-MONOTONE (BUG)")
          (if p.p_reconciles then "reconcile with registry"
           else "DRIFT (BUG)"))
      r.r_snapshot;
    List.iter
      (fun f ->
        Printf.printf
          "  flight    %-10s escalate after %d: quarantine %s, dump %s, \
           streak %s\n"
          f.f_workload f.f_escalate_after
          (if f.f_quarantine_ok then "fired" else "MISSING (BUG)")
          (if f.f_dump_deterministic then "deterministic"
           else "NONDETERMINISTIC (BUG)")
          (if f.f_covers_streak_ok then "covered" else "NOT COVERED (BUG)"))
      r.r_dump

  let print_json r =
    let ov_json v =
      J.Obj
        ([ ("workload", J.Str v.v_name);
           ("blocks", J.Int v.v_blocks);
           ("nets", J.Int v.v_nets);
           ("instants", J.Int v.v_instants);
           ("evaluations_off", J.Int v.v_evals_off);
           ("evaluations_on", J.Int v.v_evals_on);
           ("wall_off_s", J.Float v.v_wall_off);
           ("wall_on_s", J.Float v.v_wall_on);
           ("overhead_pct", J.Float (overhead_pct v));
           ("outputs_equal", J.Bool v.v_outputs_equal);
           ("evals_identical", J.Bool (v.v_evals_off = v.v_evals_on));
           ( "overhead_within_bound",
             J.Bool ((not v.v_gate) || overhead_pct v <= overhead_bound_pct) )
         ]
        @
        match v.v_baseline_evals with
        | None -> []
        | Some b ->
            [ ("baseline_evaluations", J.Int b);
              ("baseline_identical", J.Bool (b = v.v_evals_off)) ])
    in
    let acc_json k =
      J.Obj
        [ ("workload", J.Str k.k_name);
          ("label", J.Str k.k_stream);
          ("blocks", J.Int k.k_blocks);
          ("instants", J.Int k.k_instants);
          ("alpha", J.Float k.k_alpha);
          ("values", J.Int k.k_count);
          ( "quantiles",
            J.List
              (List.map
                 (fun q ->
                   J.Obj
                     [ ("q", J.Float q.q_q);
                       ("exact", J.Float q.q_exact);
                       ("estimate", J.Float q.q_est);
                       ("rel_err", J.Float q.q_rel) ])
                 k.k_quantiles) );
          ("within_bound", J.Bool k.k_within_bound) ]
    in
    let mg_json m =
      J.Obj
        [ ("workload", J.Str m.g_name);
          ("shards", J.Int m.g_shards);
          ("values", J.Int m.g_values);
          ("merge_equal", J.Bool m.g_equal);
          ("quantiles_identical", J.Bool m.g_quantiles_identical) ]
    in
    let snap_json p =
      J.Obj
        [ ("workload", J.Str p.p_workload);
          ("instants", J.Int p.p_instants);
          ("snapshots", J.Int p.p_snapshots);
          ("lines_valid", J.Bool p.p_lines_valid);
          ("monotone_ok", J.Bool p.p_monotone_ok);
          ("reconciles", J.Bool p.p_reconciles) ]
    in
    let dump_json f =
      J.Obj
        [ ("workload", J.Str f.f_workload);
          ("escalate_after", J.Int f.f_escalate_after);
          ("quarantine_ok", J.Bool f.f_quarantine_ok);
          ("dump_deterministic", J.Bool f.f_dump_deterministic);
          ("covers_streak_ok", J.Bool f.f_covers_streak_ok) ]
    in
    print_endline
      (J.to_string
         (J.Obj
            [ ("bench", J.Str "monitor");
              ("overhead", J.List (List.map ov_json r.r_overhead));
              ("sketch_accuracy", J.List (List.map acc_json r.r_accuracy));
              ("merge", J.List (List.map mg_json r.r_merge));
              ("snapshots", J.List (List.map snap_json r.r_snapshot));
              ("flight", J.List (List.map dump_json r.r_dump)) ]))

  (* Smoke contract (wired into `dune runtest` via the monitor-smoke
     alias): monitoring never changes outputs or evaluation counts,
     sketch quantiles respect the relative-error bound against exact
     quantiles, shard merges are bucket-identical to a single sketch,
     snapshots parse and reconcile with the registry, and quarantine
     dumps are deterministic and cover the faulty streak. The <= 5%
     wall gate runs full size only — smoke-scaled instants are all
     bookkeeping. *)
  let check ~smoke r =
    let failed = ref false in
    let fail fmt =
      Printf.ksprintf
        (fun s ->
          Printf.eprintf "FAIL %s\n" s;
          failed := true)
        fmt
    in
    List.iter
      (fun v ->
        if not v.v_outputs_equal then
          fail "%s: monitoring changed the simulation outputs" v.v_name;
        if v.v_evals_off <> v.v_evals_on then
          fail "%s: monitoring changed block evaluations (%d -> %d)" v.v_name
            v.v_evals_off v.v_evals_on;
        (match v.v_baseline_evals with
        | Some b when b <> v.v_evals_off ->
            fail "%s: monitor-off path drifted from the committed fusion \
                  baseline (%d -> %d)"
              v.v_name b v.v_evals_off
        | Some _ | None -> ());
        if (not smoke) && v.v_gate && overhead_pct v > overhead_bound_pct then
          fail "%s: monitor overhead %.2f%% > %.0f%%" v.v_name (overhead_pct v)
            overhead_bound_pct)
      r.r_overhead;
    List.iter
      (fun k ->
        if not k.k_within_bound then
          fail "%s/%s: sketch quantile outside the %.3f relative-error bound"
            k.k_name k.k_stream k.k_alpha)
      r.r_accuracy;
    List.iter
      (fun m ->
        if not (m.g_equal && m.g_quantiles_identical) then
          fail "%s: merged shards differ from the single sketch" m.g_name)
      r.r_merge;
    List.iter
      (fun p ->
        if not p.p_lines_valid then
          fail "%s: a snapshot line did not parse back" p.p_workload;
        if not p.p_monotone_ok then
          fail "%s: snapshot cumulative counters decreased" p.p_workload;
        if not p.p_reconciles then
          fail "%s: monitor cumulatives drifted from the telemetry registry"
            p.p_workload)
      r.r_snapshot;
    List.iter
      (fun f ->
        if not f.f_quarantine_ok then
          fail "%s: watchdog escalation did not produce a quarantine dump"
            f.f_workload;
        if not f.f_dump_deterministic then
          fail "%s: fixed-seed reruns produced different flight dumps"
            f.f_workload;
        if not f.f_covers_streak_ok then
          fail "%s: flight dump does not cover the %d faulty instants"
            f.f_workload f.f_escalate_after)
      r.r_dump;
    if !failed then exit 1

  let run ~json ~smoke ~baseline () =
    let r = reports ~smoke ~baseline () in
    if json then print_json r else print_text r;
    check ~smoke r
end

(* ------------------------------------------------------------------ *)
(* Refinement-checking coverage: VC discharge over the FIR and JPEG    *)
(* refinement chains, trace correspondence under seeded schedules,     *)
(* and the mutation gate (a deliberately broken transform must be      *)
(* rejected by its verification conditions).                           *)
(* ------------------------------------------------------------------ *)

module Refinement_bench = struct
  module J = Telemetry.Json
  module V = Javatime.Verify

  type row = {
    f_workload : string;
    f_cls : string;
    f_steps : int;
    f_transforms : string list;
    f_discharged : int;
    f_failed : int;
    f_schedules : int;
    f_instants : int;
    f_strategies : string list;
    f_checked : int;
    f_corr_failures : string list;
  }

  type report = { rows : row list; mutation_vcs_failed : int }

  let workloads ~smoke () =
    let scale n small = if smoke then small else n in
    [ ( "fir", Workloads.Fir_mj.unrestricted_source, "FirFilter",
        scale 120 6, scale 8 2 );
      ( "jpeg",
        Workloads.Jpeg_mj.unrestricted_source ~width:16 ~height:8 (),
        "JpegCodec", scale 120 6, scale 4 2 ) ]

  let row (name, source, cls, schedules, instants) =
    let program = Mj.Parser.parse_program ~file:(name ^ ".mj") source in
    let report, _ = V.check_program program in
    let corr = V.trace_correspondence ~schedules ~instants program ~cls in
    { f_workload = name;
      f_cls = cls;
      f_steps = List.length report.V.v_steps;
      f_transforms = List.map (fun s -> s.V.s_transform) report.V.v_steps;
      f_discharged = report.V.v_discharged;
      f_failed = report.V.v_failed;
      f_schedules = corr.V.c_schedules;
      f_instants = corr.V.c_instants;
      f_strategies = corr.V.c_strategies;
      f_checked = corr.V.c_checked;
      f_corr_failures = corr.V.c_failures }

  (* Mutation gate: a while->for that leaves the update statement in
     the body while also installing it as the for-update (so it runs
     twice per iteration) must fail its verification conditions. *)
  let mk d = { Mj.Ast.stmt = d; sloc = Mj.Loc.dummy }

  let broken_while_to_for =
    { Javatime.Transforms.id = "while-to-for";
      description = "broken while->for (update applied twice)";
      apply =
        (fun checked ->
          let count = ref 0 in
          let rewrite s =
            match s.Mj.Ast.stmt with
            | Mj.Ast.While (cond, body) -> (
                let stmts =
                  match body.Mj.Ast.stmt with
                  | Mj.Ast.Block l -> l
                  | _ -> [ body ]
                in
                match List.rev stmts with
                | { Mj.Ast.stmt = Mj.Ast.Expr u; _ } :: _ ->
                    incr count;
                    mk
                      (Mj.Ast.For
                         (None, Some cond, Some u, mk (Mj.Ast.Block stmts)))
                | _ -> s)
            | _ -> s
          in
          let program =
            Javatime.Rewrite.map_program_bodies
              (fun ~cls:_ stmts -> List.map rewrite stmts)
              checked.Mj.Typecheck.program
          in
          (program, !count)) }

  let mutation_vcs_failed () =
    let program =
      Mj.Parser.parse_program ~file:"fir.mj" Workloads.Fir_mj.unrestricted_source
    in
    let catalogue =
      List.map
        (fun t ->
          if String.equal t.Javatime.Transforms.id "while-to-for" then
            broken_while_to_for
          else t)
        Javatime.Transforms.catalogue
    in
    let report, _ = V.check_program ~catalogue program in
    let violations = V.violations_of_report report in
    if List.for_all Policy.Rule.is_blocking violations then
      List.length violations
    else 0

  let reports ~smoke () =
    { rows = List.map row (workloads ~smoke ());
      mutation_vcs_failed = mutation_vcs_failed () }

  let print_text r =
    List.iter
      (fun w ->
        Printf.printf
          "  %-6s %s: %d step(s) [%s], %d VC(s) discharged, %d failed\n"
          w.f_workload w.f_cls w.f_steps
          (String.concat " " w.f_transforms)
          w.f_discharged w.f_failed;
        Printf.printf
          "         %d schedule(s) x %d instant(s), strategies [%s]: %d \
           checked, %d correspondence failure(s)\n"
          w.f_schedules w.f_instants
          (String.concat " " w.f_strategies)
          w.f_checked
          (List.length w.f_corr_failures);
        List.iter
          (fun f -> Printf.printf "         FAIL %s\n" f)
          w.f_corr_failures)
      r.rows;
    Printf.printf
      "  mutation gate: broken while->for rejected with %d blocking VC \
       violation(s)\n"
      r.mutation_vcs_failed

  let print_json r =
    let row_json w =
      J.Obj
        [ ("workload", J.Str w.f_workload);
          ("class", J.Str w.f_cls);
          ("transform_steps", J.Int w.f_steps);
          ("transforms", J.List (List.map (fun t -> J.Str t) w.f_transforms));
          ("vcs_discharged", J.Int w.f_discharged);
          ("vcs_failed", J.Int w.f_failed);
          ("vc_ok", J.Bool (w.f_failed = 0));
          ("schedules_explored", J.Int w.f_schedules);
          ("instants", J.Int w.f_instants);
          ("strategies", J.List (List.map (fun s -> J.Str s) w.f_strategies));
          ("correspondences_checked", J.Int w.f_checked);
          ("correspondence_ok", J.Bool (w.f_corr_failures = [])) ]
    in
    print_endline
      (J.to_string
         (J.Obj
            [ ("bench", J.Str "refinement");
              ("workloads", J.List (List.map row_json r.rows));
              ("mutation_vcs_failed", J.Int r.mutation_vcs_failed);
              ("mutation_rejected_ok", J.Bool (r.mutation_vcs_failed > 0)) ]))

  (* Smoke contract (refinement-smoke alias in `dune runtest`): every
     transform the engine applied discharges its VCs, every explored
     schedule's abstracted trace refines the deterministic stream, and
     the broken transform is rejected. *)
  let check ~smoke r =
    let failed = ref false in
    let fail fmt =
      Printf.ksprintf
        (fun s ->
          Printf.eprintf "FAIL %s\n" s;
          failed := true)
        fmt
    in
    List.iter
      (fun w ->
        if w.f_steps = 0 then
          fail "%s: the engine applied no transform" w.f_workload;
        if w.f_discharged = 0 then
          fail "%s: no verification condition was discharged" w.f_workload;
        if w.f_failed > 0 then
          fail "%s: %d verification condition(s) failed" w.f_workload w.f_failed;
        if w.f_corr_failures <> [] then
          fail "%s: %d correspondence failure(s)" w.f_workload
            (List.length w.f_corr_failures);
        if (not smoke) && w.f_schedules < 100 then
          fail "%s: only %d schedules explored (>= 100 required)" w.f_workload
            w.f_schedules)
      r.rows;
    if r.mutation_vcs_failed = 0 then
      fail "mutation gate: the broken transform was not rejected";
    if !failed then exit 1

  let run ~json ~smoke () =
    let r = reports ~smoke () in
    if json then print_json r else print_text r;
    check ~smoke r
end

(* ------------------------------------------------------------------ *)
(* Causal tracing: recording overhead on the fused xl rows (the        *)
(* disabled path must stay cycle-identical to the committed fusion     *)
(* baseline; the traced path is measured and reported honestly),       *)
(* why-provenance slice sizes on generated nets up to 1e4 blocks       *)
(* under the bounded ring, first-divergence localization of seeded     *)
(* block mutations, and bit-identical record/replay across every       *)
(* strategy and containment policy, injected campaigns included.       *)
(* ------------------------------------------------------------------ *)

module Causal_bench = struct
  module J = Telemetry.Json
  module C = Telemetry.Causal
  module G = Asr.Graph
  module B = Asr.Block
  module D = Asr.Domain
  module T = Asr.Trace
  module F = Asr.Fixpoint
  module S = Asr.Supervisor
  module I = Asr.Inject

  (* ---- overhead: causal-off vs causal-on on the fusion xl rows ----- *)

  type ov_row = {
    v_name : string;
    v_blocks : int;
    v_nets : int;
    v_instants : int;
    v_evals_off : int;
    v_evals_on : int;
    v_wall_off : float;
    v_wall_on : float;
    v_outputs_equal : bool;
    v_events_pushed : int;  (* causal events pushed over one stream *)
    v_overwrites : int;  (* ring evictions over one stream *)
    v_baseline_evals : int option;  (* fused evals from BENCH_fusion.json *)
  }

  (* Same interleaved best-of-[passes] protocol as
     [Monitor_bench.measure_pair]; the on arm records every evaluation
     into a default-capacity causal ring. Unlike the monitor's counter
     increments, full event capture (reads resolution + write arrays per
     evaluation) is NOT expected to fit a 5% envelope on these
     tiny-kernel nets — the traced wall is reported, not gated. The
     hard gates are on the off arm: evaluations and outputs identical
     to the traced arm, and cycle-identical to the committed fusion
     baseline (tracing disabled costs one [None] match per instant). *)
  let measure_pair g stream ~passes ~reps =
    let compiled = G.compile g in
    let sim_off = Asr.Simulate.create ~strategy:Asr.Fixpoint.Fused g in
    let cz = C.create ~n_nets:compiled.G.n_nets () in
    let sim_on =
      Asr.Simulate.create ~strategy:Asr.Fixpoint.Fused ~causal:cz g
    in
    let arm sim =
      let outputs =
        List.map (fun inputs -> Asr.Simulate.step sim inputs) stream
      in
      let evals = Asr.Simulate.block_evaluations sim in
      Asr.Simulate.reset sim;
      (outputs, evals)
    in
    let off_out, off_evals = arm sim_off in
    let on_out, on_evals = arm sim_on in
    let pushed = C.pushed cz and overwrites = C.overwrites cz in
    let timed sim =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        List.iter (fun inputs -> ignore (Asr.Simulate.step sim inputs)) stream;
        Asr.Simulate.reset sim
      done;
      let w = Unix.gettimeofday () -. t0 in
      w /. float_of_int reps
    in
    Gc.full_major ();
    let best_off = ref infinity and best_on = ref infinity in
    for p = 1 to passes do
      let w_off, w_on =
        if p land 1 = 0 then begin
          let w_off = timed sim_off in
          let w_on = timed sim_on in
          (w_off, w_on)
        end
        else begin
          let w_on = timed sim_on in
          let w_off = timed sim_off in
          (w_off, w_on)
        end
      in
      if w_off < !best_off then best_off := w_off;
      if w_on < !best_on then best_on := w_on
    done;
    ((off_out, off_evals, !best_off), (on_out, on_evals, !best_on),
     (pushed, overwrites))

  let overhead_row ?baseline name g ~instants ~passes ~reps =
    let compiled = G.compile g in
    let stream = Sched_bench.stimulus g ~instants in
    let (off_out, off_evals, off_wall), (on_out, on_evals, on_wall),
        (pushed, overwrites) =
      measure_pair g stream ~passes ~reps
    in
    { v_name = name;
      v_blocks = Array.length compiled.G.c_blocks;
      v_nets = compiled.G.n_nets;
      v_instants = instants;
      v_evals_off = off_evals;
      v_evals_on = on_evals;
      v_wall_off = off_wall;
      v_wall_on = on_wall;
      v_outputs_equal = off_out = on_out;
      v_events_pushed = pushed;
      v_overwrites = overwrites;
      v_baseline_evals =
        (match baseline with None -> None | Some lookup -> lookup ~name) }

  let overhead ~smoke ~baseline () =
    let scale n small = if smoke then small else n in
    let lookup = Option.map Monitor_bench.fusion_baseline baseline in
    (* the fusion xl topologies, sizes and stimulus, so the committed
       fused evaluation counts line up exactly *)
    [ overhead_row ?baseline:lookup "fir-xl"
        (Sched_bench.fir_graph (scale 512 16))
        ~instants:(scale 200 20) ~passes:(scale 20 3) ~reps:(scale 5 1);
      overhead_row ?baseline:lookup "jpeg-pipeline-xl"
        (Sched_bench.pipeline_graph (scale 320 12))
        ~instants:(scale 200 20) ~passes:(scale 20 3) ~reps:(scale 10 1) ]

  let overhead_traced_pct v =
    if v.v_wall_off <= 0.0 then 0.0
    else 100.0 *. (v.v_wall_on -. v.v_wall_off) /. v.v_wall_off

  (* ---- why-provenance slice sizes under the bounded ring ----------- *)

  type sl_row = {
    s_name : string;
    s_blocks : int;
    s_nets : int;
    s_instants : int;
    s_pushed : int;
    s_overwrites : int;
    s_checked : int;  (* slices computed *)
    s_mean : float;  (* mean events per slice *)
    s_max : int;
    s_truncated : int;  (* slices that crossed the retention horizon *)
    s_roots_ok : bool;
        (* every slice agrees with the recorded fixed point: a Def net
           resolves its establishing event (or reports truncation), a ⊥
           net reports no establishing value *)
  }

  let slice_row ~size ~instants =
    let width = min size 25 in
    let depth = max 1 (size / width) in
    let g =
      Workloads.Netgen.generate ~inputs:4 ~delays:4 ~cyclic_ratio:0.04
        ~seed:(1311 + size) ~depth ~width ()
    in
    let compiled = G.compile g in
    let t =
      T.record ~strategy:F.Fused g (Workloads.Netgen.stimulus g ~instants)
    in
    let out_nets =
      match T.outputs t with
      | [] -> []
      | first :: _ -> List.filter_map (fun (n, _) -> T.output_net t n) first
    in
    let last = T.instants t - 1 in
    let probes =
      List.concat_map
        (fun di ->
          if last - di < 0 then []
          else List.map (fun net -> (net, last - di)) out_nets)
        [ 0; 1; 2 ]
    in
    let slices =
      List.map
        (fun (net, instant) ->
          let recorded =
            match T.nets_at t instant with
            | Some nets -> nets.(net)
            | None -> D.Bottom
          in
          (T.why t ~net ~instant, recorded))
        probes
    in
    let sizes =
      List.map (fun (sl, _) -> List.length sl.C.sl_events) slices
    in
    let checked = List.length slices in
    let overwrites, _ = T.data_loss t in
    { s_name = Printf.sprintf "netgen-%d" (Array.length compiled.G.c_blocks);
      s_blocks = Array.length compiled.G.c_blocks;
      s_nets = compiled.G.n_nets;
      s_instants = T.instants t;
      s_pushed = overwrites + List.length (T.events t);
      s_overwrites = overwrites;
      s_checked = checked;
      s_mean =
        (if checked = 0 then 0.0
         else
           float_of_int (List.fold_left ( + ) 0 sizes) /. float_of_int checked);
      s_max = List.fold_left max 0 sizes;
      s_truncated =
        List.length (List.filter (fun (sl, _) -> sl.C.sl_truncated) slices);
      s_roots_ok =
        checked > 0
        && List.for_all
             (fun (sl, recorded) ->
               match recorded with
               | D.Bottom -> sl.C.sl_value = None
               | D.Def _ -> sl.C.sl_root >= 0 || sl.C.sl_truncated)
             slices }

  let slice_rows ~smoke () =
    let sizes = if smoke then [ 50 ] else [ 100; 1_000; 10_000 ] in
    let instants = if smoke then 8 else 20 in
    List.map (fun size -> slice_row ~size ~instants) sizes

  (* ---- first-divergence localization of seeded mutations ----------- *)

  type loc_row = {
    l_name : string;
    l_blocks : int;
    l_mutated : int;  (* corrupted compiled block index *)
    l_instant : int;  (* localized divergence instant *)
    l_net : int;
    l_localized : bool;  (* localizer blamed exactly the mutated block *)
  }

  (* Off-by-one every Int output of one block — the canonical silent
     data corruption a bit flip or a wrong-constant patch produces. *)
  let corrupt g ~target =
    G.map_blocks g (fun bi b ->
        if bi <> target then b
        else
          { b with
            B.fn =
              (fun ins ->
                Array.map
                  (function
                    | D.Def (Asr.Data.Int v) -> D.Def (Asr.Data.Int (v + 1))
                    | x -> x)
                  (b.B.fn ins)) })

  let localize_row ~seed ~instants =
    let g =
      Workloads.Netgen.generate ~inputs:3 ~delays:2 ~cyclic_ratio:0.1 ~seed
        ~depth:6 ~width:8 ()
    in
    let compiled = G.compile g in
    let n_blocks = Array.length compiled.G.c_blocks in
    let stream = Workloads.Netgen.stimulus g ~instants in
    let reference = T.record ~strategy:F.Fused g stream in
    (* walk candidate targets from a seeded start until one whose
       corruption actually perturbs the run (Bool-valued cells shrug
       off an Int offset), then demand the localizer blame exactly it *)
    let start = seed mod n_blocks in
    let rec hunt k =
      if k >= n_blocks then
        { l_name = Printf.sprintf "netgen-seed%d" seed;
          l_blocks = n_blocks;
          l_mutated = -1;
          l_instant = -1;
          l_net = -1;
          l_localized = false }
      else
        let target = (start + k) mod n_blocks in
        let mutated = T.record ~strategy:F.Fused (corrupt g ~target) stream in
        match T.first_divergence reference mutated with
        | None -> hunt (k + 1)
        | Some d ->
            { l_name = Printf.sprintf "netgen-seed%d" seed;
              l_blocks = n_blocks;
              l_mutated = target;
              l_instant = d.T.d_instant;
              l_net = d.T.d_net;
              l_localized =
                d.T.d_block = target
                && d.T.d_slice_a <> None
                && d.T.d_slice_b <> None }
    in
    hunt 0

  let localize_rows ~smoke () =
    let seeds = if smoke then [ 31 ] else [ 31; 32; 33 ] in
    let instants = if smoke then 6 else 8 in
    List.map (fun seed -> localize_row ~seed ~instants) seeds

  (* ---- bit-identical record/replay across strategies and policies -- *)

  type rp_row = {
    p_strategy : string;
    p_policy : string;  (* "none" or the containment policy *)
    p_injected : int;  (* faults drawn into the campaign plan *)
    p_instants : int;  (* instants the recorded run completed *)
    p_aborted : bool;  (* Fail_fast cut the run short *)
    p_replay_identical : bool;
    p_serialization_identical : bool;
  }

  let replay_row g stream ~strategy ?policy ?inject () =
    let t = T.record ~strategy ?policy ?inject ~seed:17 g stream in
    { p_strategy = F.strategy_name strategy;
      p_policy =
        (match policy with None -> "none" | Some p -> S.policy_name p);
      p_injected = (match inject with None -> 0 | Some l -> List.length l);
      p_instants = T.instants t;
      p_aborted = T.fatal t <> None;
      p_replay_identical = T.equal t (T.replay t g);
      p_serialization_identical = T.equal t (T.of_json (T.to_json t)) }

  let replay_rows ~smoke () =
    let instants = if smoke then 6 else 12 in
    let g =
      Workloads.Netgen.generate ~inputs:3 ~delays:2 ~cyclic_ratio:0.1 ~seed:41
        ~depth:5 ~width:8 ()
    in
    let compiled = G.compile g in
    let n_blocks = Array.length compiled.G.c_blocks in
    let stream = Workloads.Netgen.stimulus g ~instants in
    let campaign seed =
      I.plan ~seed ~n_blocks ~instants ~n_faults:3 ~first_only:false ()
    in
    [ replay_row g stream ~strategy:F.Chaotic ();
      replay_row g stream ~strategy:F.Scheduled ~policy:S.Hold_last
        ~inject:(campaign 7) ();
      replay_row g stream ~strategy:F.Worklist ~policy:(S.Retry 2)
        ~inject:(campaign 8) ();
      replay_row g stream ~strategy:F.Fused ~policy:S.Absent
        ~inject:(campaign 9) ();
      (* a persistent trap under Fail_fast: the recorded run aborts
         mid-stream and the replay must abort at the same instant with
         the same partial trace *)
      replay_row g stream ~strategy:F.Fused ~policy:S.Fail_fast
        ~inject:
          [ { I.i_block = 1;
              i_kind = I.Trap;
              i_instant = instants / 2;
              i_persistence = I.Persistent;
              i_first_only = false } ]
        () ]

  (* ---- report ------------------------------------------------------ *)

  type report = {
    r_overhead : ov_row list;
    r_slices : sl_row list;
    r_localize : loc_row list;
    r_replay : rp_row list;
  }

  let reports ~smoke ~baseline () =
    { r_overhead = overhead ~smoke ~baseline ();
      r_slices = slice_rows ~smoke ();
      r_localize = localize_rows ~smoke ();
      r_replay = replay_rows ~smoke () }

  let print_text r =
    print_endline
      "Causal tracing: provenance, replay and divergence localization";
    print_newline ();
    List.iter
      (fun v ->
        Printf.printf
          "  %-18s %5d blocks %5d nets %4d instants  off %.6fs traced %.6fs \
           (%+.1f%%)  outputs %s  evals %s%s  %d events (%d evicted)\n"
          v.v_name v.v_blocks v.v_nets v.v_instants v.v_wall_off v.v_wall_on
          (overhead_traced_pct v)
          (if v.v_outputs_equal then "identical" else "DIVERGED (BUG)")
          (if v.v_evals_off = v.v_evals_on then "identical" else "CHANGED (BUG)")
          (match v.v_baseline_evals with
          | None -> ""
          | Some b when b = v.v_evals_off -> ", cycle-identical to baseline"
          | Some b -> Printf.sprintf ", BASELINE DRIFT (%d)" b)
          v.v_events_pushed v.v_overwrites)
      r.r_overhead;
    print_newline ();
    List.iter
      (fun s ->
        Printf.printf
          "  %-14s %5d blocks %5d nets: %d slices, %.1f events mean, %d max, \
           %d truncated (%d ring evictions)  %s\n"
          s.s_name s.s_blocks s.s_nets s.s_checked s.s_mean s.s_max
          s.s_truncated s.s_overwrites
          (if s.s_roots_ok then "roots resolved" else "UNRESOLVED (BUG)"))
      r.r_slices;
    print_newline ();
    List.iter
      (fun l ->
        Printf.printf
          "  %-16s %3d blocks: mutated block %d -> %s (instant %d, net %d)\n"
          l.l_name l.l_blocks l.l_mutated
          (if l.l_localized then "localized" else "NOT LOCALIZED (BUG)")
          l.l_instant l.l_net)
      r.r_localize;
    print_newline ();
    List.iter
      (fun p ->
        Printf.printf
          "  replay %-9s policy %-9s %d injected, %d instants%s: %s, \
           serialization %s\n"
          p.p_strategy p.p_policy p.p_injected p.p_instants
          (if p.p_aborted then " (aborted)" else "")
          (if p.p_replay_identical then "bit-identical"
           else "DIVERGED (BUG)")
          (if p.p_serialization_identical then "bit-identical"
           else "DIVERGED (BUG)"))
      r.r_replay

  let print_json r =
    let ov_json v =
      J.Obj
        ([ ("workload", J.Str v.v_name);
           ("blocks", J.Int v.v_blocks);
           ("nets", J.Int v.v_nets);
           ("instants", J.Int v.v_instants);
           ("evaluations_off", J.Int v.v_evals_off);
           ("evaluations_traced", J.Int v.v_evals_on);
           ("wall_off_s", J.Float v.v_wall_off);
           ("wall_traced_s", J.Float v.v_wall_on);
           ("overhead_traced_pct", J.Float (overhead_traced_pct v));
           ("events_pushed", J.Int v.v_events_pushed);
           ("ring_overwrites", J.Int v.v_overwrites);
           ("outputs_equal", J.Bool v.v_outputs_equal);
           ("evals_identical", J.Bool (v.v_evals_off = v.v_evals_on)) ]
        @
        match v.v_baseline_evals with
        | None -> []
        | Some b ->
            [ ("baseline_evaluations", J.Int b);
              ("off_cycle_identical", J.Bool (b = v.v_evals_off)) ])
    in
    let sl_json s =
      J.Obj
        [ ("workload", J.Str s.s_name);
          ("blocks", J.Int s.s_blocks);
          ("nets", J.Int s.s_nets);
          ("instants", J.Int s.s_instants);
          ("events_pushed", J.Int s.s_pushed);
          ("ring_overwrites", J.Int s.s_overwrites);
          ("slices_checked", J.Int s.s_checked);
          ("slice_events_mean", J.Float s.s_mean);
          ("slice_events_max", J.Int s.s_max);
          ("slices_truncated", J.Int s.s_truncated);
          ("roots_resolved_ok", J.Bool s.s_roots_ok) ]
    in
    let loc_json l =
      J.Obj
        [ ("workload", J.Str l.l_name);
          ("blocks", J.Int l.l_blocks);
          ("mutated_block", J.Int l.l_mutated);
          ("divergence_instant", J.Int l.l_instant);
          ("divergence_net", J.Int l.l_net);
          ("localized", J.Bool l.l_localized) ]
    in
    let rp_json p =
      J.Obj
        [ ("strategy", J.Str p.p_strategy);
          ("policy", J.Str p.p_policy);
          ("injected_faults", J.Int p.p_injected);
          ("instants", J.Int p.p_instants);
          ("aborted", J.Bool p.p_aborted);
          ("replay_identical", J.Bool p.p_replay_identical);
          ("serialization_identical", J.Bool p.p_serialization_identical) ]
    in
    let coverage =
      J.Obj
        [ ( "slices_checked",
            J.Int (List.fold_left (fun a s -> a + s.s_checked) 0 r.r_slices) );
          ("localizations_checked", J.Int (List.length r.r_localize));
          ( "replayed_instants_checked",
            J.Int (List.fold_left (fun a p -> a + p.p_instants) 0 r.r_replay) )
        ]
    in
    print_endline
      (J.to_string
         (J.Obj
            [ ("bench", J.Str "causal");
              ("overhead", J.List (List.map ov_json r.r_overhead));
              ("slices", J.List (List.map sl_json r.r_slices));
              ("localization", J.List (List.map loc_json r.r_localize));
              ("replay", J.List (List.map rp_json r.r_replay));
              ("coverage", coverage) ]))

  (* Smoke contract (causal-smoke alias in `dune runtest`): tracing
     never changes outputs or evaluation counts, the disabled path is
     cycle-identical to the committed fusion baseline when one is
     given, every slice resolves its root or reports truncation, every
     seeded mutation is localized to exactly the mutated block, and
     every recorded run — injected campaigns and Fail_fast aborts
     included — replays and re-serializes bit-identically. *)
  let check r =
    let failed = ref false in
    let fail fmt =
      Printf.ksprintf
        (fun s ->
          Printf.eprintf "FAIL %s\n" s;
          failed := true)
        fmt
    in
    List.iter
      (fun v ->
        if not v.v_outputs_equal then
          fail "%s: causal tracing changed the simulation outputs" v.v_name;
        if v.v_evals_off <> v.v_evals_on then
          fail "%s: causal tracing changed block evaluations (%d -> %d)"
            v.v_name v.v_evals_off v.v_evals_on;
        match v.v_baseline_evals with
        | Some b when b <> v.v_evals_off ->
            fail
              "%s: causal-off path drifted from the committed fusion \
               baseline (%d -> %d)"
              v.v_name b v.v_evals_off
        | Some _ | None -> ())
      r.r_overhead;
    List.iter
      (fun s ->
        if s.s_checked = 0 then fail "%s: no slices computed" s.s_name;
        if not s.s_roots_ok then
          fail "%s: a slice neither resolved its root nor reported truncation"
            s.s_name)
      r.r_slices;
    List.iter
      (fun l ->
        if not l.l_localized then
          fail "%s: first_divergence did not blame the mutated block %d"
            l.l_name l.l_mutated)
      r.r_localize;
    List.iter
      (fun p ->
        if not p.p_replay_identical then
          fail "replay %s/%s: replayed trace differs from the recording"
            p.p_strategy p.p_policy;
        if not p.p_serialization_identical then
          fail "replay %s/%s: serialization round-trip is not bit-identical"
            p.p_strategy p.p_policy)
      r.r_replay;
    if !failed then exit 1

  let run ~json ~smoke ~baseline () =
    let r = reports ~smoke ~baseline () in
    if json then print_json r else print_text r;
    check r
end

(* ------------------------------------------------------------------ *)
(* Crash recovery: resume differentials and a SIGKILL harness.         *)
(* ------------------------------------------------------------------ *)

module Recovery_bench = struct
  module J = Telemetry.Json
  module C = Telemetry.Causal
  module G = Asr.Graph
  module D = Asr.Domain
  module F = Asr.Fixpoint
  module S = Asr.Supervisor
  module I = Asr.Inject
  module K = Asr.Checkpoint

  let rec drop n = function
    | _ :: tl when n > 0 -> drop (n - 1) tl
    | l -> l

  (* Bit-exact instant-stream equality: [Codec.value_eq] distinguishes
     NaN payloads and -0.0 where structural (=) would lie. *)
  let outputs_eq a b =
    List.length a = List.length b
    && List.for_all2
         (fun xs ys ->
           List.length xs = List.length ys
           && List.for_all2
                (fun (n1, v1) (n2, v2) ->
                  String.equal n1 n2 && Asr.Codec.value_eq v1 v2)
                xs ys)
         a b

  (* ---- resume differential: every k-th checkpoint, bit-identical --- *)

  type rd_row = {
    d_system : string;
    d_strategy : string;
    d_policy : string;  (* "none" or the containment policy *)
    d_blocks : int;
    d_instants : int;  (* instants the oracle run completed *)
    d_injected : int;
    d_aborted : bool;  (* Fail_fast cut the oracle short *)
    d_checkpoints : int;  (* artifacts captured over the oracle run *)
    d_resumes : int;  (* resumed runs driven to completion *)
    d_roundtrip : bool;  (* of_json (to_json ck) bit-identical, all cks *)
    d_identical : bool;  (* every resumed run converged bit-exactly *)
  }

  (* The same strategy/policy arms as [Causal_bench.replay_rows]: every
     strategy, every containment policy, injected campaigns on all but
     the chaotic control, and a persistent Fail_fast abort. *)
  let arms ~n_blocks ~instants =
    let campaign seed =
      I.plan ~seed ~n_blocks ~instants ~n_faults:3 ~first_only:false ()
    in
    [ (F.Chaotic, None, []);
      (F.Scheduled, Some S.Hold_last, campaign 7);
      (F.Worklist, Some (S.Retry 2), campaign 8);
      (F.Fused, Some S.Absent, campaign 9);
      (F.Fused, Some S.Fail_fast,
       [ { I.i_block = 1;
           i_kind = I.Trap;
           i_instant = instants / 2;
           i_persistence = I.Persistent;
           i_first_only = false } ]) ]

  let attach g ~strategy ?policy ~inject ~with_causal () =
    let injector = if inject = [] then None else Some (I.make inject) in
    let g' =
      match injector with None -> g | Some inj -> I.instrument inj g
    in
    let sup = Option.map (fun p -> S.create ~policy:p ()) policy in
    let causal =
      if with_causal then Some (C.create ~n_nets:(G.compile g).G.n_nets ())
      else None
    in
    let sim =
      Asr.Simulate.create ~strategy
        ~telemetry:(Telemetry.Registry.create ())
        ?supervisor:sup
        ~monitor:(Telemetry.Monitor.create ())
        ?causal g'
    in
    (sim, injector)

  (* One oracle run captures a deep checkpoint at every [ck_every]-th
     instant boundary while it keeps going — then each artifact is
     round-tripped through JSON, resumed against the clean graph, and
     driven over the remaining stimulus. Convergence is judged the
     strongest way available: the resumed suffix outputs must be
     bit-equal to the oracle's, and a final checkpoint of the resumed
     run must serialize byte-identically to the oracle's final
     checkpoint — covering delay registers, fixed points, counters,
     fault log, quarantine set, monitor cumulatives and causal events
     in one comparison. Fail_fast oracles abort instead; there the
     resumed run must abort at the same instant with the same fault. *)
  let differential_row ~name g stream ~strategy ?policy ~inject ~ck_every
      ~with_causal () =
    let compiled = G.compile g in
    let arr = Array.of_list stream in
    let n = Array.length arr in
    let sim, injector = attach g ~strategy ?policy ~inject ~with_causal () in
    let cks = ref [] and outs = ref [] and fatal = ref None in
    (try
       for i = 0 to n - 1 do
         if i > 0 && i mod ck_every = 0 then
           cks := K.capture ~system:name ~seed:17 ?injector sim :: !cks;
         outs := Asr.Simulate.step sim arr.(i) :: !outs;
         Option.iter I.tick injector
       done
     with S.Fatal f -> fatal := Some f);
    let oracle_outs = List.rev !outs in
    let oracle_abort =
      Option.map
        (fun f -> (List.length oracle_outs, S.fault_to_string f))
        !fatal
    in
    let oracle_final =
      match !fatal with
      | Some _ -> None
      | None -> Some (K.capture ~system:name ~seed:17 ?injector sim)
    in
    let roundtrip = ref true and identical = ref true in
    let resumes = ref 0 in
    List.iter
      (fun ck ->
        let ck' = K.of_json (K.to_json ck) in
        if not (K.equal ck ck') then roundtrip := false;
        incr resumes;
        let r = K.resume ck' g in
        let start = K.instant ck' in
        let routs = ref [] and rfatal = ref None in
        (try
           for i = start to n - 1 do
             routs := Asr.Simulate.step r.K.r_sim arr.(i) :: !routs;
             Option.iter I.tick r.K.r_injector
           done
         with S.Fatal f -> rfatal := Some f);
        let routs = List.rev !routs in
        let suffix_ok = outputs_eq routs (drop start oracle_outs) in
        let end_ok =
          match (oracle_abort, !rfatal) with
          | None, None -> (
              match oracle_final with
              | Some o ->
                  K.equal o
                    (K.capture ~system:name ~seed:17
                       ?injector:r.K.r_injector r.K.r_sim)
              | None -> false)
          | Some (a, detail), Some f ->
              start + List.length routs = a
              && String.equal (S.fault_to_string f) detail
          | _ -> false
        in
        if not (suffix_ok && end_ok) then identical := false)
      (List.rev !cks);
    { d_system = name;
      d_strategy = F.strategy_name strategy;
      d_policy =
        (match policy with None -> "none" | Some p -> S.policy_name p);
      d_blocks = Array.length compiled.G.c_blocks;
      d_instants = List.length oracle_outs;
      d_injected = List.length inject;
      d_aborted = Option.is_some oracle_abort;
      d_checkpoints = !resumes;
      d_resumes = !resumes;
      d_roundtrip = !roundtrip;
      d_identical = !identical }

  let netgen_graph size =
    let width = min size 25 in
    let depth = max 1 (size / width) in
    Workloads.Netgen.generate ~inputs:4 ~delays:4 ~cyclic_ratio:0.04
      ~seed:(2201 + size) ~depth ~width ()

  (* FIR / JPEG plus 10^2..10^4-block generated nets. Causal sinks ride
     on the smaller systems (event capture on a 10^4-net ring would
     dominate the run without sharpening the gate); the chaotic arm is
     dropped from the 10^4 net only, where O(depth) sweeps make it the
     lone multi-second row. *)
  let differential ~smoke () =
    let instants = if smoke then 6 else 12 in
    let ck_every = if smoke then 2 else 3 in
    let systems =
      if smoke then
        [ ("fir", Sched_bench.fir_graph 12, `Sched, true, `All);
          ("netgen-small", netgen_graph 50, `Netgen, true, `All) ]
      else
        [ ("fir", Sched_bench.fir_graph 64, `Sched, true, `All);
          ("jpeg-pipeline", Sched_bench.pipeline_graph 48, `Sched, true,
           `All);
          ("netgen-100", netgen_graph 100, `Netgen, true, `All);
          ("netgen-1000", netgen_graph 1000, `Netgen, false, `All);
          ("netgen-10000", netgen_graph 10000, `Netgen, false, `Fast) ]
    in
    List.concat_map
      (fun (name, g, stim, with_causal, which) ->
        let compiled = G.compile g in
        let n_blocks = Array.length compiled.G.c_blocks in
        let stream =
          match stim with
          | `Sched -> Sched_bench.stimulus g ~instants
          | `Netgen -> Workloads.Netgen.stimulus g ~instants
        in
        arms ~n_blocks ~instants
        |> List.filter (fun (strategy, _, _) ->
               which = `All || strategy <> F.Chaotic)
        |> List.map (fun (strategy, policy, inject) ->
               differential_row ~name g stream ~strategy ?policy ~inject
                 ~ck_every ~with_causal ()))
      systems

  (* ---- SIGKILL harness: kill a child mid-run, resume from disk ----- *)

  type kl_row = {
    k_kill : int;  (* boundary the child froze at when killed *)
    k_resumed_from : int;  (* instant of the artifact recovered, -1 none *)
    k_sigkill : bool;  (* child died by SIGKILL while frozen *)
    k_converged : bool;  (* resumed run's end state equals the oracle's *)
  }

  (* The killed child and the in-process oracle build the identical
     system: a seeded generated net under Worklist / Retry 2 with an
     injected three-fault campaign, full telemetry attached. *)
  let harness_setup ~instants =
    let g =
      Workloads.Netgen.generate ~inputs:3 ~delays:2 ~cyclic_ratio:0.1
        ~seed:41 ~depth:5 ~width:8 ()
    in
    let compiled = G.compile g in
    let inject =
      I.plan ~seed:11
        ~n_blocks:(Array.length compiled.G.c_blocks)
        ~instants ~n_faults:3 ~first_only:false ()
    in
    let injector = I.make inject in
    let sim =
      Asr.Simulate.create ~strategy:F.Worklist
        ~telemetry:(Telemetry.Registry.create ())
        ~supervisor:(S.create ~policy:(S.Retry 2) ())
        ~monitor:(Telemetry.Monitor.create ())
        ~causal:(C.create ~n_nets:compiled.G.n_nets ())
        (I.instrument injector g)
    in
    (g, sim, injector,
     Array.of_list (Workloads.Netgen.stimulus g ~instants))

  (* Hidden [recovery-child DIR KILL CK_EVERY INSTANTS] mode, spawned
     by [kill_row]: run the harness system saving a checkpoint at every
     CK_EVERY-instant boundary; at the KILL boundary, touch DIR/ready
     and freeze until the parent's SIGKILL lands. Dying frozen — after
     fsync-visible artifacts, before the next instant — models the
     power cut the recovery story is for. *)
  let child = function
    | [ dir; kill; ck_every; instants ] ->
        let kill = int_of_string kill
        and ck_every = int_of_string ck_every
        and instants = int_of_string instants in
        let _g, sim, injector, arr = harness_setup ~instants in
        for i = 0 to Array.length arr - 1 do
          if i > 0 && i mod ck_every = 0 then
            K.save
              (K.capture ~system:"recovery-harness" ~seed:41 ~injector sim)
              (Filename.concat dir (Printf.sprintf "checkpoint-%d.json" i));
          if i = kill then begin
            close_out (open_out (Filename.concat dir "ready"));
            while true do
              Unix.sleepf 3600.0
            done
          end;
          ignore (Asr.Simulate.step sim arr.(i));
          I.tick injector
        done
    | _ ->
        prerr_endline "usage: recovery-child DIR KILL CK_EVERY INSTANTS";
        exit 1

  let rec wait_for path tries =
    Sys.file_exists path
    || tries > 0
       && begin
            Unix.sleepf 0.05;
            wait_for path (tries - 1)
          end

  let kill_row ~instants ~ck_every ~kill =
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "asr-recovery-%d-%d" (Unix.getpid ()) kill)
    in
    (try Unix.mkdir dir 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let exe = Sys.executable_name in
    let pid =
      Unix.create_process exe
        [| exe; "recovery-child"; dir; string_of_int kill;
           string_of_int ck_every; string_of_int instants |]
        Unix.stdin Unix.stdout Unix.stderr
    in
    let ready = wait_for (Filename.concat dir "ready") 600 in
    Unix.kill pid Sys.sigkill;
    let _, status = Unix.waitpid [] pid in
    let sigkill = ready && status = Unix.WSIGNALED Sys.sigkill in
    let latest = K.latest dir in
    (* in-process oracle: the same run, uninterrupted *)
    let g, sim, injector, arr = harness_setup ~instants in
    let oracle_outs =
      Array.to_list
        (Array.map
           (fun inputs ->
             let o = Asr.Simulate.step sim inputs in
             I.tick injector;
             o)
           arr)
    in
    let oracle_final =
      K.capture ~system:"recovery-harness" ~seed:41 ~injector sim
    in
    let converged =
      match latest with
      | None -> false
      | Some (_, path) ->
      let ck = K.load path in
      let r = K.resume ck g in
      let start = K.instant ck in
      let routs = ref [] in
      for i = start to Array.length arr - 1 do
        routs := Asr.Simulate.step r.K.r_sim arr.(i) :: !routs;
        Option.iter I.tick r.K.r_injector
      done;
      outputs_eq (List.rev !routs) (drop start oracle_outs)
      && K.equal oracle_final
           (K.capture ~system:"recovery-harness" ~seed:41
              ?injector:r.K.r_injector r.K.r_sim)
    in
    Array.iter
      (fun f ->
        try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    (try Unix.rmdir dir with Unix.Unix_error _ -> ());
    { k_kill = kill;
      k_resumed_from = (match latest with Some (i, _) -> i | None -> -1);
      k_sigkill = sigkill;
      k_converged = converged }

  let kill_rows ~smoke () =
    let instants = if smoke then 8 else 12 in
    let ck_every = if smoke then 2 else 3 in
    let n_kills = if smoke then 1 else 3 in
    List.init n_kills (fun j ->
        let k = 41 * (j + 1) mod instants in
        kill_row ~instants ~ck_every ~kill:(max ck_every k))

  (* ---- report ------------------------------------------------------ *)

  type report = { r_diff : rd_row list; r_kills : kl_row list }

  let reports ~smoke () =
    { r_diff = differential ~smoke (); r_kills = kill_rows ~smoke () }

  let print_text r =
    print_endline "Crash recovery: checkpoint differentials, SIGKILL resume";
    print_newline ();
    List.iter
      (fun d ->
        Printf.printf
          "  %-14s %-9s policy %-9s %5d blocks %2d instants %d injected%s: \
           %d checkpoints, %d resumes %s, serialization %s\n"
          d.d_system d.d_strategy d.d_policy d.d_blocks d.d_instants
          d.d_injected
          (if d.d_aborted then " (aborted)" else "")
          d.d_checkpoints d.d_resumes
          (if d.d_identical then "bit-identical" else "DIVERGED (BUG)")
          (if d.d_roundtrip then "bit-identical" else "DIVERGED (BUG)"))
      r.r_diff;
    print_newline ();
    List.iter
      (fun k ->
        Printf.printf
          "  SIGKILL at instant %2d: resumed from checkpoint %d, child %s, \
           %s\n"
          k.k_kill k.k_resumed_from
          (if k.k_sigkill then "killed frozen" else "NOT KILLED (BUG)")
          (if k.k_converged then "converged to oracle"
           else "DID NOT CONVERGE (BUG)"))
      r.r_kills

  let print_json r =
    let rd_json d =
      J.Obj
        [ ("workload", J.Str d.d_system);
          ("strategy", J.Str d.d_strategy);
          ("policy", J.Str d.d_policy);
          ("blocks", J.Int d.d_blocks);
          ("instants", J.Int d.d_instants);
          ("injected_faults", J.Int d.d_injected);
          ("aborted", J.Bool d.d_aborted);
          ("checkpoints_checked", J.Int d.d_checkpoints);
          ("resumes_checked", J.Int d.d_resumes);
          ("artifact_roundtrip_identical", J.Bool d.d_roundtrip);
          ("resume_identical", J.Bool d.d_identical) ]
    in
    let kl_json k =
      J.Obj
        [ ("kill_instant", J.Int k.k_kill);
          ("recovered_from_instant", J.Int k.k_resumed_from);
          ("sigkill_delivered_ok", J.Bool k.k_sigkill);
          ("recovery_converged_ok", J.Bool k.k_converged) ]
    in
    let coverage =
      J.Obj
        [ ( "checkpoints_checked",
            J.Int
              (List.fold_left (fun a d -> a + d.d_checkpoints) 0 r.r_diff) );
          ( "resumes_checked",
            J.Int (List.fold_left (fun a d -> a + d.d_resumes) 0 r.r_diff) );
          ("kills_checked", J.Int (List.length r.r_kills)) ]
    in
    print_endline
      (J.to_string
         (J.Obj
            [ ("bench", J.Str "recovery");
              ("differential", J.List (List.map rd_json r.r_diff));
              ("sigkill", J.List (List.map kl_json r.r_kills));
              ("coverage", coverage) ]))

  (* Smoke contract (recovery-smoke alias in `dune runtest`): every
     checkpoint artifact survives a JSON round-trip bit-identically,
     every resumed run converges bit-exactly to the uninterrupted
     oracle — outputs, final fixed point, fault log, monitor
     cumulatives and causal events, Fail_fast aborts re-aborting at
     the same instant with the same fault — and a SIGKILLed child's
     on-disk artifacts recover the run. *)
  let check r =
    let failed = ref false in
    let fail fmt =
      Printf.ksprintf
        (fun s ->
          Printf.eprintf "FAIL %s\n" s;
          failed := true)
        fmt
    in
    List.iter
      (fun d ->
        if d.d_checkpoints = 0 then
          fail "%s %s/%s: no checkpoints captured" d.d_system d.d_strategy
            d.d_policy;
        if not d.d_roundtrip then
          fail "%s %s/%s: artifact JSON round-trip is not bit-identical"
            d.d_system d.d_strategy d.d_policy;
        if not d.d_identical then
          fail "%s %s/%s: a resumed run diverged from the oracle" d.d_system
            d.d_strategy d.d_policy)
      r.r_diff;
    List.iter
      (fun k ->
        if not k.k_sigkill then
          fail "kill@%d: child was not SIGKILLed while frozen" k.k_kill;
        if not k.k_converged then
          fail "kill@%d: resumed run did not converge to the oracle" k.k_kill)
      r.r_kills;
    if !failed then exit 1

  let run ~json ~smoke () =
    let r = reports ~smoke () in
    if json then print_json r else print_text r;
    check r
end

(* ------------------------------------------------------------------ *)
(* Artifact comparison: diff two BENCH_*.json files metric by metric   *)
(* and fail on cycle/eval regressions beyond the threshold.            *)
(* ------------------------------------------------------------------ *)

module Compare = struct
  module J = Telemetry.Json

  let regression_threshold_pct = 10.0

  (* Flatten a BENCH artifact into dotted-path numeric leaves. List
     elements are keyed by their identifying string fields (workload,
     engine, ...) when present, falling back to the index, so rows
     line up across artifacts even if reordered. *)
  let rec flatten path acc = function
    | J.Int n -> (path, float_of_int n) :: acc
    | J.Float f -> (path, f) :: acc
    (* booleans are quality gates (containment held, traces identical,
       attribution reconciles, ...); compare them as 0/1 so a gate that
       flips false across artifacts is visible and guardable *)
    | J.Bool b -> (path, if b then 1.0 else 0.0) :: acc
    | J.Str _ | J.Null -> acc
    | J.Obj kvs ->
        List.fold_left
          (fun acc (k, v) -> flatten (path ^ "." ^ k) acc v)
          acc kvs
    | J.List items ->
        List.fold_left
          (fun (i, acc) item ->
            let key =
              let parts =
                List.filter_map
                  (fun field ->
                    match J.member field item with
                    | Some (J.Str s) -> Some s
                    | _ -> None)
                  [ "workload"; "engine"; "policy"; "trap"; "name"; "method";
                    "file"; "label"; "strategy" ]
              in
              match parts with
              | [] -> string_of_int i
              | parts -> String.concat ":" parts
            in
            (i + 1, flatten (path ^ "." ^ key) acc item))
          (0, acc) items
        |> snd

  let load path =
    let ic = open_in_bin path in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    match J.parse text with
    | parsed -> List.rev (flatten "" [] parsed)
    | exception J.Parse_error msg ->
        Printf.eprintf "cannot parse %s: %s\n" path msg;
        exit 1

  let contains ~sub s =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0

  (* Bigger-is-worse metrics guarded against regression. *)
  let guarded path =
    let p = String.lowercase_ascii path in
    contains ~sub:"cycles" p || contains ~sub:"eval" p

  (* Boolean quality gates where any decrease (true -> false) is a
     regression regardless of magnitude: containment held, traces
     identical, attribution reconciled, runs deterministic, ... *)
  let guarded_quality path =
    let p = String.lowercase_ascii path in
    List.exists
      (fun sub -> contains ~sub p)
      [ "identical"; "contained"; "reconcil"; "deterministic"; "equal";
        "_ok"; "valid"; "resumes"; "within_bound" ]

  (* Coverage counters where any decrease is a regression: schedules
     explored, correspondences checked, VCs discharged. Shrinking the
     verified surface must be a deliberate, visible act. *)
  let guarded_coverage path =
    let p = String.lowercase_ascii path in
    List.exists
      (fun sub -> contains ~sub p)
      [ "explored"; "checked"; "discharged"; "localized"; "replayed" ]

  let run baseline_path current_path =
    let baseline = load baseline_path and current = load current_path in
    let current_tbl = Hashtbl.create 64 in
    List.iter (fun (k, v) -> Hashtbl.replace current_tbl k v) current;
    Printf.printf "comparing %s (baseline) vs %s (current)\n\n" baseline_path
      current_path;
    Printf.printf "%-64s %14s %14s %9s\n" "metric" "baseline" "current"
      "delta";
    let regressions = ref 0 in
    List.iter
      (fun (path, base) ->
        match Hashtbl.find_opt current_tbl path with
        | None -> Printf.printf "%-64s %14.6g %14s\n" path base "(gone)"
        | Some cur ->
            Hashtbl.remove current_tbl path;
            let delta_pct =
              if base = 0.0 then if cur = 0.0 then 0.0 else infinity
              else 100.0 *. (cur -. base) /. base
            in
            let regressed =
              (guarded path && delta_pct > regression_threshold_pct)
              || (guarded_quality path && cur < base)
              || (guarded_coverage path && cur < base)
            in
            if regressed then incr regressions;
            if base <> cur || regressed then
              Printf.printf "%-64s %14.6g %14.6g %+8.2f%%%s\n" path base cur
                delta_pct
                (if regressed then "  REGRESSION" else ""))
      baseline;
    List.iter
      (fun (path, cur) ->
        if Hashtbl.mem current_tbl path then
          Printf.printf "%-64s %14s %14.6g\n" path "(new)" cur)
      current;
    if !regressions > 0 then begin
      Printf.printf
        "\n%d guarded metric(s) regressed more than %.0f%%\n" !regressions
        regression_threshold_pct;
      exit 1
    end
    else
      Printf.printf
        "\nno cycle/eval metric regressed more than %.0f%% and no quality \
         gate flipped\n"
        regression_threshold_pct
end

(* ------------------------------------------------------------------ *)

let json_flag = ref false

let smoke_flag = ref false

(* --baseline PATH: a committed artifact the current run is checked
   against — BENCH_lineprof.json for the faults bench (supervisor-
   disabled cycle counts), BENCH_fusion.json for the monitor bench
   (monitor-off evaluation counts must be cycle-identical to the fused
   rows). Full-size runs only; meaningless under --smoke, which scales
   the workloads down. *)
let baseline_flag = ref None

let experiments =
  [ ("schedule",
     `Plain (fun () -> Sched_bench.run ~json:!json_flag ~smoke:!smoke_flag ()));
    ("fusion",
     `Plain (fun () -> Fusion_bench.run ~json:!json_flag ~smoke:!smoke_flag ()));
    ("boundscheck",
     `Plain (fun () -> Boundscheck.run ~json:!json_flag ~smoke:!smoke_flag ()));
    ("analysis",
     `Plain (fun () -> Analysis_bench.run ~json:!json_flag ~smoke:!smoke_flag ()));
    ("telemetry",
     `Plain (fun () -> Telemetry_bench.run ~json:!json_flag ~smoke:!smoke_flag ()));
    ("lineprof",
     `Plain (fun () -> Lineprof_bench.run ~json:!json_flag ~smoke:!smoke_flag ()));
    ("faults",
     `Plain
       (fun () ->
         Faults_bench.run ~json:!json_flag ~smoke:!smoke_flag
           ~baseline:!baseline_flag ()));
    ("monitor",
     `Plain
       (fun () ->
         Monitor_bench.run ~json:!json_flag ~smoke:!smoke_flag
           ~baseline:!baseline_flag ()));
    ("refinement",
     `Plain
       (fun () -> Refinement_bench.run ~json:!json_flag ~smoke:!smoke_flag ()));
    ("causal",
     `Plain
       (fun () ->
         Causal_bench.run ~json:!json_flag ~smoke:!smoke_flag
           ~baseline:!baseline_flag ()));
    ("recovery",
     `Plain
       (fun () -> Recovery_bench.run ~json:!json_flag ~smoke:!smoke_flag ()));
    ("table1", `Sized table1);
    ("fig1", `Plain fig1);
    ("fig2", `Plain fig2);
    ("fig3", `Plain fig3);
    ("fig4", `Plain fig4);
    ("fig5", `Plain fig5);
    ("fig6", `Plain fig6);
    ("fig7", `Plain fig7);
    ("fig8", `Plain fig8);
    ("ablation", `Plain ablation);
    ("bechamel", `Plain bechamel) ]

let run_one ~small name =
  match List.assoc_opt name experiments with
  | Some (`Plain f) ->
      f ();
      print_newline ()
  | Some (`Sized f) ->
      f ~small ();
      print_newline ()
  | None ->
      Printf.eprintf "unknown experiment '%s'; available: %s\n" name
        (String.concat " " (List.map fst experiments @ [ "all" ]));
      exit 1

let rec compare_files = function
  | "--compare" :: baseline :: current :: _ -> Some (baseline, current)
  | "--compare" :: _ ->
      Printf.eprintf "usage: --compare BASELINE.json CURRENT.json\n";
      exit 1
  | _ :: rest -> compare_files rest
  | [] -> None

let rec strip_baseline = function
  | "--baseline" :: path :: rest ->
      baseline_flag := Some path;
      strip_baseline rest
  | [ "--baseline" ] ->
      Printf.eprintf "usage: --baseline BENCH_lineprof.json\n";
      exit 1
  | a :: rest -> a :: strip_baseline rest
  | [] -> []

let () =
  (* hidden subprocess mode for the SIGKILL recovery harness *)
  (match List.tl (Array.to_list Sys.argv) with
  | "recovery-child" :: rest ->
      Recovery_bench.child rest;
      exit 0
  | _ -> ());
  let args = strip_baseline (List.tl (Array.to_list Sys.argv)) in
  (match compare_files args with
  | Some (baseline, current) ->
      Compare.run baseline current;
      exit 0
  | None -> ());
  let small = List.mem "--small" args in
  json_flag := List.mem "--json" args;
  smoke_flag := List.mem "--smoke" args;
  let names =
    List.filter (fun a -> not (List.mem a [ "--small"; "--json"; "--smoke" ])) args
  in
  let sep name =
    (* keep stdout pure JSON under --json *)
    if not !json_flag then Printf.printf "==== %s ====\n" name
  in
  match names with
  | [] | [ "all" ] ->
      List.iter
        (fun (name, _) ->
          sep name;
          run_one ~small name)
        (List.filter (fun (n, _) -> n <> "bechamel") experiments)
  | names -> List.iter (fun n -> sep n; run_one ~small n) names
