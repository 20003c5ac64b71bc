open Util
module D = Asr.Domain
module Dt = Asr.Data
module G = Asr.Graph
module B = Asr.Block
module S = Asr.Supervisor
module I = Asr.Inject
module Fx = Asr.Fixpoint
module Sim = Asr.Simulate
module K = Asr.Checkpoint
module Cd = Asr.Codec
module C = Telemetry.Causal
module J = Telemetry.Json
module M = Telemetry.Monitor
module E = Javatime.Elaborate

(* ---- helpers ----------------------------------------------------- *)

let jget path j =
  List.fold_left
    (fun acc k -> match acc with Some o -> J.member k o | None -> None)
    (Some j) path

let jint path j =
  match jget path j with
  | Some (J.Int n) -> n
  | _ -> Alcotest.failf "missing int at %s" (String.concat "." path)

(* x --gain 2--> (+) --> y, with the adder's second arm fed back
   through a delay: y(t) = 2 x(t) + y(t-1). *)
let chain_graph () =
  let g = G.create "chain" in
  let x = G.add_input g "x" in
  let gn = G.add_block g (B.gain 2) in
  G.connect g ~src:(G.out_port x 0) ~dst:(G.in_port gn 0);
  let add = G.add_block g B.add in
  G.connect g ~src:(G.out_port gn 0) ~dst:(G.in_port add 0);
  let f = G.add_block g (B.fork 2) in
  G.connect g ~src:(G.out_port add 0) ~dst:(G.in_port f 0);
  let d = G.add_delay g ~init:(D.int 0) in
  G.connect g ~src:(G.out_port f 0) ~dst:(G.in_port d 0);
  G.connect g ~src:(G.out_port d 0) ~dst:(G.in_port add 1);
  let y = G.add_output g "y" in
  G.connect g ~src:(G.out_port f 1) ~dst:(G.in_port y 0);
  g

let chain_stream n = List.init n (fun t -> [ ("x", D.int (t + 1)) ])

let persistent_trap ~block ~instant =
  { I.i_block = block;
    i_kind = I.Trap;
    i_instant = instant;
    i_persistence = I.Persistent;
    i_first_only = false }

(* The full attachment set the CLI wires up, over an instrumented copy
   of [g]. *)
let attach ?policy ?escalate_after ?(inject = []) ?(causal = false)
    ~strategy g =
  let injector = if inject = [] then None else Some (I.make inject) in
  let g' = match injector with None -> g | Some inj -> I.instrument inj g in
  let sup =
    Option.map (fun p -> S.create ~policy:p ?escalate_after ()) policy
  in
  let cz =
    if causal then Some (C.create ~n_nets:(G.compile g).G.n_nets ())
    else None
  in
  let sim =
    Sim.create ~strategy
      ~telemetry:(Telemetry.Registry.create ())
      ?supervisor:sup
      ~monitor:(M.create ())
      ?causal:cz g'
  in
  (sim, injector)

let rec drop n = function _ :: tl when n > 0 -> drop (n - 1) tl | l -> l

let outputs_eq a b =
  List.length a = List.length b
  && List.for_all2
       (fun xs ys ->
         List.length xs = List.length ys
         && List.for_all2
              (fun (n1, v1) (n2, v2) ->
                String.equal n1 n2 && Cd.value_eq v1 v2)
              xs ys)
       a b

(* Drive [sim] over [stream] (ticking [injector]), stopping on a
   Fail_fast abort; returns completed outputs and the fault, if any. *)
let run_to_end sim injector stream =
  let outs = ref [] and fatal = ref None in
  (try
     List.iter
       (fun inputs ->
         outs := Sim.step sim inputs :: !outs;
         Option.iter I.tick injector)
       stream
   with S.Fatal f -> fatal := Some f);
  (List.rev !outs, !fatal)

(* Oracle run that also captures a checkpoint at instant boundary
   [at]. *)
let run_capturing ?policy ?escalate_after ?(inject = []) ?(causal = false)
    ~strategy ~at g stream =
  let sim, injector =
    attach ?policy ?escalate_after ~inject ~causal ~strategy g
  in
  let ck = ref None in
  let outs = ref [] and fatal = ref None in
  (try
     List.iteri
       (fun i inputs ->
         if i = at then
           ck := Some (K.capture ~system:"test" ~seed:5 ?injector sim);
         outs := Sim.step sim inputs :: !outs;
         Option.iter I.tick injector)
       stream
   with S.Fatal f -> fatal := Some f);
  let final =
    match !fatal with
    | Some _ -> None
    | None -> Some (K.capture ~system:"test" ~seed:5 ?injector sim)
  in
  (Option.get !ck, List.rev !outs, final, !fatal)

(* Resume [ck] (through a JSON round-trip) against clean [g] and drive
   the remaining instants. *)
let resume_and_run ck g stream =
  let ck = K.of_json (K.to_json ck) in
  let r = K.resume ck g in
  let start = K.instant ck in
  let routs, rfatal = run_to_end r.K.r_sim r.K.r_injector (drop start stream) in
  let final =
    match rfatal with
    | Some _ -> None
    | None ->
        Some
          (K.capture ~system:"test" ~seed:5 ?injector:r.K.r_injector
             r.K.r_sim)
  in
  (r, start, routs, final, rfatal)

(* A resumed run converged: identical suffix outputs and a final
   checkpoint byte-identical to the oracle's (or, on aborted runs, the
   same abort instant and fault). *)
let converged ~oracle_outs ~oracle_final ~oracle_fatal ~start ~routs ~final
    ~rfatal =
  outputs_eq routs (drop start oracle_outs)
  &&
  match (oracle_fatal, rfatal) with
  | None, None -> K.equal (Option.get oracle_final) (Option.get final)
  | Some f, Some f' ->
      start + List.length routs = List.length oracle_outs
      && String.equal (S.fault_to_string f) (S.fault_to_string f')
  | _ -> false

let bits_roundtrip f =
  match J.float_of_bits (J.float_bits f) with
  | Some f' -> Int64.bits_of_float f' = Int64.bits_of_float f
  | None -> false

(* ---- generators -------------------------------------------------- *)

let arbitrary_data =
  let open QCheck.Gen in
  let scalar =
    oneof
      [ map (fun n -> Dt.Int n) small_signed_int;
        map (fun b -> Dt.Real (Int64.float_of_bits b)) ui64;
        map (fun b -> Dt.Bool b) bool;
        map (fun s -> Dt.Str s) (small_string ~gen:printable);
        map (fun l -> Dt.Int_array (Array.of_list l))
          (small_list small_signed_int);
        return Dt.Absent ]
  in
  let data =
    oneof [ scalar; map (fun l -> Dt.Tuple l) (list_size (int_range 0 4) scalar) ]
  in
  QCheck.make
    ~print:(fun v -> J.to_string (Cd.value_json v))
    (oneof [ map (fun d -> D.Def d) data; return D.Bottom ])

let suite =
  [
    (* ---- shared IEEE-754 codec ---- *)
    case "float bits codec is bit-exact on the special values" (fun () ->
        List.iter
          (fun f ->
            Alcotest.(check bool)
              (Printf.sprintf "bits 0x%Lx" (Int64.bits_of_float f))
              true (bits_roundtrip f))
          [ 0.0; -0.0; 1.5; -3.25; Float.pi; min_float; max_float;
            epsilon_float; infinity; neg_infinity; nan;
            (* a non-default NaN payload *)
            Int64.float_of_bits 0x7ff0000000deadL ]);
    qcase ~count:200 "every 64-bit pattern rides through float_bits"
      (QCheck.make ~print:(Printf.sprintf "0x%Lx") QCheck.Gen.ui64)
      (fun b -> bits_roundtrip (Int64.float_of_bits b));
    qcase ~count:200 "domain values round-trip through the codec"
      arbitrary_data
      (fun v -> Cd.value_eq v (Cd.value_of_json (Cd.value_json v)));

    (* ---- simulator state ---- *)
    case "simulate state export/import resumes bit-identically" (fun () ->
        let stream = chain_stream 8 in
        let a = Sim.create ~strategy:Fx.Worklist (chain_graph ()) in
        List.iter (fun i -> ignore (Sim.step a i)) (List.filteri (fun i _ -> i < 4) stream);
        let st = Sim.export_state a in
        let b = Sim.create ~strategy:Fx.Worklist (chain_graph ()) in
        Sim.import_state b st;
        let rest = drop 4 stream in
        let out_a = List.map (Sim.step a) rest in
        let out_b = List.map (Sim.step b) rest in
        Alcotest.(check bool) "suffixes agree" true (outputs_eq out_a out_b);
        Alcotest.(check int) "instant restored" (Sim.instant_count a)
          (Sim.instant_count b));
    case "simulate import_state rejects a foreign graph" (fun () ->
        let a = Sim.create (chain_graph ()) in
        ignore (Sim.step a [ ("x", D.int 1) ]);
        let st = Sim.export_state a in
        let g = G.create "other" in
        let x = G.add_input g "x" in
        let y = G.add_output g "y" in
        G.connect g ~src:(G.out_port x 0) ~dst:(G.in_port y 0);
        let b = Sim.create g in
        (match Sim.import_state b st with
        | () -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ()));

    (* ---- supervisor state ---- *)
    case "supervisor state round-trips, quarantine included" (fun () ->
        let g = chain_graph () in
        let sim, injector =
          attach ~policy:S.Hold_last ~escalate_after:2
            ~inject:[ persistent_trap ~block:0 ~instant:1 ]
            ~strategy:Fx.Scheduled g
        in
        let _ = run_to_end sim injector (chain_stream 6) in
        let sup = Option.get (Sim.supervisor sim) in
        Alcotest.(check bool) "quarantined" true (S.is_quarantined sup 0);
        let st = S.state_json sup in
        let sup' = S.create ~policy:S.Hold_last ~escalate_after:2 () in
        S.attach sup' (G.compile g);
        S.restore_state sup' st;
        Alcotest.(check string) "state identical"
          (J.to_string st)
          (J.to_string (S.state_json sup'));
        Alcotest.(check bool) "quarantine restored" true
          (S.is_quarantined sup' 0);
        Alcotest.(check int) "fault log restored" (S.fault_count sup)
          (S.fault_count sup'));
    case "supervisor state_json refuses an open instant" (fun () ->
        let sup = S.create () in
        S.attach sup (G.compile (chain_graph ()));
        S.begin_instant sup;
        match S.state_json sup with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());

    (* ---- monitor and causal state ---- *)
    case "monitor state round-trips through JSON" (fun () ->
        let m = M.create () in
        let sim = Sim.create ~monitor:m (chain_graph ()) in
        List.iter (fun i -> ignore (Sim.step sim i)) (chain_stream 5);
        let st = M.state_json m in
        let m' = M.create () in
        M.restore_state m' st;
        Alcotest.(check string) "state identical" (J.to_string st)
          (J.to_string (M.state_json m'));
        Alcotest.(check int) "instants" (M.instants m) (M.instants m'));
    case "causal state export/of_state preserves the continuable log"
      (fun () ->
        let g = chain_graph () in
        let cz = C.create ~n_nets:(G.compile g).G.n_nets () in
        let sim = Sim.create ~causal:cz g in
        List.iter (fun i -> ignore (Sim.step sim i)) (chain_stream 4);
        let st = C.export_state cz in
        let cz' = C.of_state st in
        Alcotest.(check int) "pushed" (C.pushed cz) (C.pushed cz');
        let render = C.event_json ~render:Cd.value_json in
        Alcotest.(check (list string))
          "events identical"
          (List.map (fun e -> J.to_string (render e)) (C.events cz))
          (List.map (fun e -> J.to_string (render e)) (C.events cz')));

    (* ---- checkpoint round-trip differentials ---- *)
    case "resume from a mid-run checkpoint is bit-identical" (fun () ->
        let g = chain_graph () in
        let stream = chain_stream 10 in
        List.iter
          (fun strategy ->
            let ck, outs, final, fatal =
              run_capturing ~policy:(S.Retry 2)
                ~inject:[ persistent_trap ~block:1 ~instant:3 ]
                ~causal:true ~strategy ~at:5 g stream
            in
            let _, start, routs, rfinal, rfatal = resume_and_run ck g stream in
            Alcotest.(check bool)
              (Fx.strategy_name strategy ^ " converged")
              true
              (converged ~oracle_outs:outs ~oracle_final:final
                 ~oracle_fatal:fatal ~start ~routs ~final:rfinal ~rfatal))
          [ Fx.Chaotic; Fx.Scheduled; Fx.Worklist; Fx.Fused ]);
    case "mid-quarantine resume carries the quarantine set" (fun () ->
        let g = chain_graph () in
        let stream = chain_stream 10 in
        let ck, outs, final, fatal =
          run_capturing ~policy:S.Hold_last ~escalate_after:2
            ~inject:[ persistent_trap ~block:0 ~instant:1 ]
            ~strategy:Fx.Worklist ~at:6 g stream
        in
        let r, start, routs, rfinal, rfatal = resume_and_run ck g stream in
        Alcotest.(check bool) "resumed supervisor mid-quarantine" true
          (S.is_quarantined (Option.get r.K.r_supervisor) 0);
        Alcotest.(check bool) "converged" true
          (converged ~oracle_outs:outs ~oracle_final:final
             ~oracle_fatal:fatal ~start ~routs ~final:rfinal ~rfatal));
    case "fail-fast abort: boundary checkpoint resumes and re-aborts"
      (fun () ->
        (* the CLI's abort path: a checkpoint captured at the last
           boundary before the Fatal, saved to disk, loaded post-mortem,
           and the resumed run re-aborts identically *)
        let g = chain_graph () in
        let stream = chain_stream 8 in
        let ck, outs, final, fatal =
          run_capturing ~policy:S.Fail_fast
            ~inject:[ persistent_trap ~block:1 ~instant:4 ]
            ~strategy:Fx.Fused ~at:3 g stream
        in
        Alcotest.(check bool) "oracle aborted" true (Option.is_some fatal);
        Alcotest.(check int) "aborted at the faulty instant" 4
          (List.length outs);
        let path = Filename.temp_file "ck-abort" ".json" in
        let m = M.create () in
        K.save ~monitor:m ck path;
        let writes, bytes, _, failures = M.checkpoint_stats m in
        Alcotest.(check int) "one write accounted" 1 writes;
        Alcotest.(check bool) "bytes accounted" true (bytes > 0);
        Alcotest.(check int) "no failures" 0 failures;
        let ck' = K.load path in
        Sys.remove path;
        Alcotest.(check bool) "artifact identical" true (K.equal ck ck');
        let _, start, routs, rfinal, rfatal = resume_and_run ck' g stream in
        Alcotest.(check bool) "re-aborts identically" true
          (converged ~oracle_outs:outs ~oracle_final:final
             ~oracle_fatal:fatal ~start ~routs ~final:rfinal ~rfatal));
    case "failed checkpoint write raises the data-loss flag" (fun () ->
        let g = chain_graph () in
        let sim = Sim.create g in
        ignore (Sim.step sim [ ("x", D.int 1) ]);
        let ck = K.capture ~system:"test" sim in
        let m = M.create () in
        (match K.save ~monitor:m ck "/nonexistent-dir/ck.json" with
        | () -> Alcotest.fail "expected Sys_error"
        | exception Sys_error _ -> ());
        let _, _, _, failures = M.checkpoint_stats m in
        Alcotest.(check int) "failure accounted" 1 failures;
        Alcotest.(check int) "data_loss flag raised" 1
          (jint [ "data_loss"; "checkpoint_write_failures" ] (M.snapshot m)));
    case "failed save leaves the previous artifact loadable and unchanged"
      (fun () ->
        let g = chain_graph () in
        let sim = Sim.create g in
        ignore (Sim.step sim [ ("x", D.int 1) ]);
        let before = K.capture ~system:"test" sim in
        ignore (Sim.step sim [ ("x", D.int 2) ]);
        let after = K.capture ~system:"test" sim in
        (* a target name at the 255-byte name limit: the artifact itself
           fits, the temp file beside it (same name plus a suffix) does
           not, so the save fails before touching the target — a write
           in place would have replaced it *)
        let dir = Filename.get_temp_dir_name () in
        let path = Filename.concat dir (String.make 250 'k') in
        K.save before (Filename.concat dir "ck-prev.json");
        Sys.rename (Filename.concat dir "ck-prev.json") path;
        let m = M.create () in
        (match K.save ~monitor:m after path with
        | () -> Alcotest.fail "expected Sys_error"
        | exception Sys_error _ -> ());
        let _, _, _, failures = M.checkpoint_stats m in
        Alcotest.(check int) "failure accounted" 1 failures;
        let reloaded = K.load path in
        Sys.remove path;
        Alcotest.(check bool) "previous artifact unchanged" true
          (K.equal before reloaded);
        Alcotest.(check bool) "not the failed one" false (K.equal after reloaded));
    case "failed rename removes the temp file" (fun () ->
        let sim = Sim.create (chain_graph ()) in
        let ck = K.capture ~system:"test" sim in
        (* the target is a non-empty directory: the temp file is written
           and fsynced, then the rename over the target fails *)
        let dir = Filename.temp_file "ck-dir" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        let target = Filename.concat dir "ck.json" in
        Sys.mkdir target 0o755;
        let inner = Filename.concat target "keep" in
        close_out (open_out inner);
        let m = M.create () in
        (match K.save ~monitor:m ck target with
        | () -> Alcotest.fail "expected Sys_error"
        | exception Sys_error _ -> ());
        let left = Sys.readdir dir in
        Sys.remove inner;
        Sys.rmdir target;
        Sys.rmdir dir;
        Alcotest.(check (list string)) "only the target remains" [ "ck.json" ]
          (Array.to_list left);
        let _, _, _, failures = M.checkpoint_stats m in
        Alcotest.(check int) "failure accounted" 1 failures);
    case "latest artifact ignores a temp file left by a killed save" (fun () ->
        let sim = Sim.create (chain_graph ()) in
        let ck = K.capture ~system:"test" sim in
        let dir = Filename.temp_file "ck-latest" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        let file f = Filename.concat dir f in
        K.save ck (file "checkpoint-3.json");
        K.save ck (file "checkpoint-12.json");
        (* a writer killed between open and rename: a torn, newer temp *)
        let oc = open_out (file "checkpoint-16.json.4242.tmp") in
        output_string oc "{\"torn";
        close_out oc;
        close_out (open_out (file "checkpoint-abort.json"));
        let latest = K.latest dir in
        Array.iter (fun f -> Sys.remove (file f)) (Sys.readdir dir);
        Sys.rmdir dir;
        Alcotest.(check (option (pair int string)))
          "newest complete artifact"
          (Some (12, file "checkpoint-12.json"))
          latest);
    case "recorded write seconds are wall time covering the write" (fun () ->
        (* a second domain spins while the artifact is written: process
           CPU time then runs faster than the wall clock, so a CPU-time
           reading would exceed the wall-clock interval around [save] *)
        let sim = Sim.create (chain_graph ()) in
        ignore (Sim.step sim [ ("x", D.int 1) ]);
        let ck =
          K.capture ~system:"test"
            ~machine:(J.Str (String.make (4 * 1024 * 1024) 'm'))
            sim
        in
        let path = Filename.temp_file "ck-wall" ".json" in
        let stop = Atomic.make false in
        let spinner =
          Domain.spawn (fun () ->
              let n = ref 0 in
              while not (Atomic.get stop) do
                incr n
              done;
              !n)
        in
        let m = M.create () in
        let t0 = Unix.gettimeofday () in
        K.save ~monitor:m ck path;
        let outer = Unix.gettimeofday () -. t0 in
        Atomic.set stop true;
        ignore (Domain.join spinner);
        let size = (Unix.stat path).Unix.st_size in
        Sys.remove path;
        let writes, bytes, seconds, _ = M.checkpoint_stats m in
        Alcotest.(check int) "one write" 1 writes;
        Alcotest.(check int) "bytes are the file size" size bytes;
        Alcotest.(check bool) "a write takes time" true (seconds > 0.);
        Alcotest.(check bool)
          (Printf.sprintf "inside the wall interval (%.6f <= %.6f)" seconds
             outer)
          true (seconds <= outer));
    case "save allocates the same on every write" (fun () ->
        (* benchmarks fingerprint host allocation run to run, so a save
           must not allocate data-dependently (a random temp name does) *)
        let sim = Sim.create (chain_graph ()) in
        ignore (Sim.step sim [ ("x", D.int 1) ]);
        let ck = K.capture ~system:"test" sim in
        let path = Filename.temp_file "ck-alloc" ".json" in
        let words () =
          let w0 = Gc.minor_words () in
          K.save ~monitor:(M.create ()) ck path;
          Gc.minor_words () -. w0
        in
        let first = words () in
        let all_equal = List.for_all (fun _ -> words () = first) (List.init 60 Fun.id) in
        Sys.remove path;
        Alcotest.(check bool) "identical minor words per save" true all_equal);
    case "of_json rejects an unsupported version" (fun () ->
        let sim = Sim.create (chain_graph ()) in
        let ck = K.capture ~system:"test" sim in
        let tampered =
          match K.to_json ck with
          | J.Obj kvs ->
              J.Obj
                (List.map
                   (function
                     | ("version", _) -> ("version", J.Int 999)
                     | kv -> kv)
                   kvs)
          | _ -> Alcotest.fail "object expected"
        in
        match K.of_json tampered with
        | _ -> Alcotest.fail "expected Invalid_argument"
        | exception Invalid_argument _ -> ());
    qcase ~count:40
      "random systems: resumed campaigns converge under every policy"
      Test_random_graphs.arbitrary_spec
      (fun spec ->
        let g = Test_random_graphs.build spec in
        let stream =
          List.map
            (fun bindings ->
              List.map (fun (n, v) -> (n, v)) bindings)
            (Test_random_graphs.stimuli spec)
        in
        let n = List.length stream in
        if n < 2 then true
        else
          let n_blocks = Array.length (G.compile g).G.c_blocks in
          let inject =
            I.plan ~seed:spec.Test_random_graphs.sp_seed ~n_blocks
              ~instants:n ~n_faults:2 ~first_only:false ()
          in
          let strategy, policy =
            match spec.Test_random_graphs.sp_seed mod 4 with
            | 0 -> (Fx.Scheduled, S.Hold_last)
            | 1 -> (Fx.Worklist, S.Retry 1)
            | 2 -> (Fx.Fused, S.Absent)
            | _ -> (Fx.Chaotic, S.Hold_last)
          in
          let at = 1 + (spec.Test_random_graphs.sp_seed mod (n - 1)) in
          let ck, outs, final, fatal =
            run_capturing ~policy ~inject ~strategy ~at g stream
          in
          let _, start, routs, rfinal, rfatal = resume_and_run ck g stream in
          converged ~oracle_outs:outs ~oracle_final:final ~oracle_fatal:fatal
            ~start ~routs ~final:rfinal ~rfatal);

    (* ---- machine payloads and re-application safety ---- *)
    case "machine snapshot restores a stateful reaction" (fun () ->
        let src =
          {|class Counter extends ASR {
              private int total;
              Counter() { declarePorts(1, 1); total = 0; }
              public void run() { total = total + readPort(0); writePort(0, total); }
            }|}
        in
        let elab = E.elaborate (check_src src) ~cls:"Counter" in
        Alcotest.(check int) "1+2+3" 6
          (List.fold_left (fun _ x -> react_int elab x) 0 [ 1; 2; 3 ]);
        let snap = E.machine_state_json elab in
        Alcotest.(check int) "advanced past the snapshot" 16
          (react_int elab 10);
        E.restore_machine_json elab snap;
        Alcotest.(check int) "restored: 6 + 4" 10 (react_int elab 4);
        (* the serialized payload restores too, not just the live copy *)
        E.restore_machine_json elab (J.parse (J.to_string snap));
        Alcotest.(check int) "JSON round-trip restores" 7 (react_int elab 1));
    case "re-applicable block: N applications behave as one" (fun () ->
        let src =
          {|class Acc extends ASR {
              private int total;
              Acc() { declarePorts(1, 1); total = 0; }
              public void run() { total = total + readPort(0); writePort(0, total); }
            }|}
        in
        let elab = E.elaborate (check_src src) ~cls:"Acc" in
        let block, new_instant = E.to_reapplicable_block elab in
        let apply x =
          match B.apply block [| D.int x |] with
          | [| v |] -> Option.get (D.to_int v)
          | _ -> Alcotest.fail "one output expected"
        in
        new_instant ();
        Alcotest.(check int) "first application" 5 (apply 5);
        Alcotest.(check int) "re-application is idempotent" 5 (apply 5);
        Alcotest.(check int) "third application too" 5 (apply 5);
        new_instant ();
        Alcotest.(check int) "next instant accumulates once" 8 (apply 3);
        new_instant ();
        Alcotest.(check int) "and again" 9 (apply 1));

    (* ---- atomic trace writes (shared artifact writer) ---- *)
    case "failed trace save leaves the previous trace and no temp file"
      (fun () ->
        let g = chain_graph () in
        let before = Asr.Trace.record g (chain_stream 3) in
        let after = Asr.Trace.record g (chain_stream 5) in
        let dir = Filename.temp_file "trace-atomic" "" in
        Sys.remove dir;
        Sys.mkdir dir 0o755;
        (* a target at the 255-byte name limit: the temp file beside it
           cannot be created, so the save fails before the target is
           touched — a write in place would have truncated it *)
        let path = Filename.concat dir (String.make 250 't') in
        Asr.Trace.save before (Filename.concat dir "prev.json");
        Sys.rename (Filename.concat dir "prev.json") path;
        (match Asr.Trace.save after path with
        | () -> Alcotest.fail "expected Sys_error"
        | exception Sys_error _ -> ());
        let reloaded = Asr.Trace.load path in
        Alcotest.(check bool) "previous trace unchanged" true
          (Asr.Trace.equal before reloaded);
        Alcotest.(check bool) "not the failed one" false
          (Asr.Trace.equal after reloaded);
        Sys.remove path;
        (* the target is a non-empty directory: the temp file is
           written and fsynced, then the rename fails and removes it *)
        let target = Filename.concat dir "trace.json" in
        Sys.mkdir target 0o755;
        let inner = Filename.concat target "keep" in
        close_out (open_out inner);
        (match Asr.Trace.save after target with
        | () -> Alcotest.fail "expected Sys_error"
        | exception Sys_error _ -> ());
        let left = Sys.readdir dir in
        Sys.remove inner;
        Sys.rmdir target;
        Sys.rmdir dir;
        Alcotest.(check (list string)) "temp file removed" [ "trace.json" ]
          (Array.to_list left));

    (* ---- checkpoint version 2 ---- *)
    case "of_json refuses a version-1 artifact" (fun () ->
        let sim = Sim.create ~monitor:(M.create ()) (chain_graph ()) in
        List.iter (fun i -> ignore (Sim.step sim i)) (chain_stream 3);
        let ck = K.to_json (K.capture ~system:"test" sim) in
        Alcotest.(check bool) "fixed point stored once" true
          (jget [ "prev_nets" ] ck = None && jget [ "nets" ] ck <> None);
        (* the v1 shape: version 1 and a second copy of the fixed point *)
        let v1 =
          match ck with
          | J.Obj kvs ->
              J.Obj
                (List.concat_map
                   (function
                     | ("version", _) -> [ ("version", J.Int 1) ]
                     | ("nets", v) -> [ ("nets", v); ("prev_nets", v) ]
                     | kv -> [ kv ])
                   kvs)
          | _ -> Alcotest.fail "object expected"
        in
        let path = Filename.temp_file "ck-v1" ".json" in
        let oc = open_out path in
        output_string oc (J.to_string v1);
        close_out oc;
        let refused =
          match K.load path with
          | _ -> false
          | exception Invalid_argument _ -> true
        in
        Sys.remove path;
        Alcotest.(check bool) "v1 refused" true refused);
    case "sparse supervisor state round-trips mid-quarantine byte-identically"
      (fun () ->
        let g = chain_graph () in
        (* block 0 faults from instant 1 and is quarantined at 2; block 1
           faults at instant 4 only, leaving a live streak of 1 *)
        let inject =
          [ persistent_trap ~block:0 ~instant:1;
            { (persistent_trap ~block:1 ~instant:4) with
              I.i_persistence = I.Transient } ]
        in
        let sim, injector =
          attach ~policy:S.Hold_last ~escalate_after:2 ~inject
            ~strategy:Fx.Fused g
        in
        let _ = run_to_end sim injector (chain_stream 5) in
        let sup = Option.get (Sim.supervisor sim) in
        let st = S.state_json sup in
        (match (jget [ "consec" ] st, jget [ "quarantined" ] st) with
        | Some (J.List consec), Some (J.List q) ->
            Alcotest.(check (list int)) "streaks listed sparsely" [ 0; 1 ]
              (List.map
                 (function
                   | J.List [ J.Int bi; J.Int n ] when n > 0 -> bi
                   | _ -> Alcotest.fail "[block, streak] pair expected")
                 consec);
            Alcotest.(check bool) "quarantine set listed sparsely" true
              (q = [ J.Int 0 ])
        | _ -> Alcotest.fail "consec/quarantined lists expected");
        let sup' = S.create ~policy:S.Hold_last ~escalate_after:2 () in
        S.attach sup' (G.compile (I.instrument (I.make inject) g));
        S.restore_state sup' (J.parse (J.to_string st));
        Alcotest.(check string) "state identical" (J.to_string st)
          (J.to_string (S.state_json sup'));
        Alcotest.(check bool) "quarantine restored" true (S.is_quarantined sup' 0);
        Alcotest.(check bool) "streak block not quarantined" false
          (S.is_quarantined sup' 1);
        (* and through a whole checkpoint on disk *)
        let ck = K.capture ~system:"test" ?injector sim in
        let path = Filename.temp_file "ck-sparse" ".json" in
        K.save ck path;
        let ck' = K.load path in
        Sys.remove path;
        Alcotest.(check bool) "artifact identical" true (K.equal ck ck');
        let r = K.resume ck' g in
        Alcotest.(check bool) "resumed artifact identical" true
          (K.equal ck (K.capture ~system:"test" ?injector:r.K.r_injector r.K.r_sim)));
    case "sparse supervisor state rejects bad block indices" (fun () ->
        let g = chain_graph () in
        let sup = S.create ~policy:S.Hold_last () in
        S.attach sup (G.compile g);
        let st = S.state_json sup in
        let with_member name v =
          match st with
          | J.Obj kvs ->
              J.Obj (List.map (fun (k, x) -> if k = name then (k, v) else (k, x)) kvs)
          | _ -> Alcotest.fail "object expected"
        in
        List.iter
          (fun (what, j) ->
            let sup' = S.create ~policy:S.Hold_last () in
            S.attach sup' (G.compile g);
            match S.restore_state sup' j with
            | () -> Alcotest.failf "%s: expected Invalid_argument" what
            | exception Invalid_argument _ -> ())
          [ ("quarantined past the last block",
             with_member "quarantined" (J.List [ J.Int 3 ]));
            ("negative quarantined index",
             with_member "quarantined" (J.List [ J.Int (-1) ]));
            ("non-integer quarantined index",
             with_member "quarantined" (J.List [ J.Str "0" ]));
            ("dense boolean quarantine list",
             with_member "quarantined" (J.List [ J.Bool false; J.Bool false; J.Bool false ]));
            ("streak past the last block",
             with_member "consec" (J.List [ J.List [ J.Int 3; J.Int 1 ] ]));
            ("streak of zero listed",
             with_member "consec" (J.List [ J.List [ J.Int 0; J.Int 0 ] ]));
            ("bare streak index",
             with_member "consec" (J.List [ J.Int 0 ]));
            ("consec not a list", with_member "consec" (J.Int 0)) ]);
  ]
