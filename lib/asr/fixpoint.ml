type result = {
  nets : Domain.t array;
  iterations : int;
  block_evaluations : int;
}

type strategy = Chaotic | Scheduled | Worklist | Fused

exception Nonmonotonic of string

let strategy_name = function
  | Chaotic -> "chaotic"
  | Scheduled -> "scheduled"
  | Worklist -> "worklist"
  | Fused -> "fused"

let strategy_of_string = function
  | "chaotic" -> Some Chaotic
  | "scheduled" -> Some Scheduled
  | "worklist" -> Some Worklist
  | "fused" -> Some Fused
  | _ -> None

(* Preallocated per-block scratch: input vectors filled in place before
   each application and (worklist only) previous-output snapshots. One
   allocation per graph instead of one per application — the PR-1-era
   hot-path cost. Block functions must not retain their input array;
   every cell and wrapper in this codebase copies what it keeps. *)
type buffers = {
  b_in : Domain.t array array;
  b_out : Domain.t array array;
}

let make_buffers (c : Graph.compiled) =
  { b_in =
      Array.map
        (fun (_, ins, _) -> Array.make (Array.length ins) Domain.Bottom)
        c.Graph.c_blocks;
    b_out =
      Array.map
        (fun (_, _, outs) -> Array.make (Array.length outs) Domain.Bottom)
        c.Graph.c_blocks }

(* Apply block [bi] once, lub-merging its outputs into [nets]. Returns
   true when some output net changed. A lub conflict means the block
   retracted or rewrote a defined value: not monotone. With a
   supervisor the application is guarded (trap containment, budgets,
   quarantine) and a retraction is contained by freezing the block at
   the nets' current values instead of raising. *)
let apply_block ?supervisor ?causal (c : Graph.compiled) ~bufs nets bi =
  let block, in_nets, out_nets = c.Graph.c_blocks.(bi) in
  let buf = bufs.b_in.(bi) in
  (match causal with
  | None -> ()
  | Some cz -> Telemetry.Causal.eval_begin cz ~block:bi ~reads:in_nets);
  let run () =
    for p = 0 to Array.length in_nets - 1 do
      buf.(p) <- nets.(in_nets.(p))
    done;
    Block.apply block buf
  in
  let outputs =
    match supervisor with
    | None -> run ()
    | Some sup -> Supervisor.guard sup ~bi ~run
  in
  (match (causal, supervisor) with
  | Some cz, Some sup -> (
      match Supervisor.containment sup bi with
      | Some tag -> Telemetry.Causal.set_tag cz tag
      | None -> ())
  | _ -> ());
  let changed = ref false in
  (try
     Array.iteri
       (fun port v ->
         let net = out_nets.(port) in
         let merged =
           try Domain.lub nets.(net) v
           with Domain.Inconsistent msg ->
             let detail =
               Printf.sprintf "block %s retracted output %d: %s"
                 block.Block.name port msg
             in
             let contained =
               match supervisor with
               | Some sup -> Supervisor.retract sup ~bi ~detail
               | None -> false
             in
             if contained then raise_notrace Exit
             else raise (Nonmonotonic detail)
         in
         if not (Domain.equal merged nets.(net)) then begin
           nets.(net) <- merged;
           (match causal with
           | None -> ()
           | Some cz -> Telemetry.Causal.eval_write cz ~net merged);
           changed := true
         end)
       outputs
   with Exit ->
     (* retraction contained: nets keep their values *)
     (match causal with
     | None -> ()
     | Some cz -> Telemetry.Causal.set_tag cz "contained:retraction"));
  (match causal with
  | None -> ()
  | Some cz ->
      (* a substitution that established nothing still links the
         block's nets to the tagged event, so ⊥/held values resolve *)
      if
        Telemetry.Causal.pending_tag cz <> ""
        && Telemetry.Causal.pending_writes cz = 0
      then
        Array.iter
          (fun net -> Telemetry.Causal.eval_write cz ~net nets.(net))
          out_nets;
      Telemetry.Causal.eval_commit cz);
  !changed

(* ------------------------------------------------------------------ *)
(* Chaotic iteration: the reference oracle. Re-evaluates every block on
   every sweep until a sweep changes nothing.                           *)
(* ------------------------------------------------------------------ *)

(* Optional per-block evaluation tally for telemetry; a zero-length
   array (the default) disables counting. *)
let bump counts bi =
  if Array.length counts > 0 then counts.(bi) <- counts.(bi) + 1

let eval_chaotic ?supervisor ?causal c nets ~bufs ~order ~counts =
  let order =
    match order with
    | Some order -> order
    | None -> Array.init (Array.length c.Graph.c_blocks) (fun i -> i)
  in
  let evaluations = ref 0 in
  let sweeps = ref 0 in
  (* Height of the product domain = number of nets; one extra sweep
     detects stability, so n_nets + 2 sweeps suffice for monotone blocks. *)
  let max_sweeps = c.Graph.n_nets + 2 in
  let changed = ref true in
  while !changed do
    if !sweeps > max_sweeps then
      raise (Nonmonotonic "fixpoint exceeded the monotone iteration bound");
    changed := false;
    incr sweeps;
    Array.iter
      (fun bi ->
        incr evaluations;
        bump counts bi;
        if apply_block ?supervisor ?causal c ~bufs nets bi then changed := true)
      order
  done;
  (!sweeps, !evaluations)

(* ------------------------------------------------------------------ *)
(* Static schedule: acyclic blocks once, in topological order; cyclic
   SCCs iterate locally until stable (bounded by the SCC's net count).  *)
(* ------------------------------------------------------------------ *)

(* Shared by Scheduled and the fused plan's SCC fallback. *)
let iterate_scc ?supervisor ?causal c nets ~bufs ~members ~bound ~counts
    ~evaluations =
  let rounds = ref 0 in
  let changed = ref true in
  while !changed do
    if !rounds > bound then
      raise
        (Nonmonotonic "cyclic component exceeded the monotone iteration bound");
    changed := false;
    incr rounds;
    Array.iter
      (fun bi ->
        incr evaluations;
        bump counts bi;
        if apply_block ?supervisor ?causal c ~bufs nets bi then changed := true)
      members
  done;
  !rounds

let eval_scheduled ?supervisor ?causal c nets ~bufs ~schedule ~counts =
  let evaluations = ref 0 in
  let max_rounds = ref 1 in
  List.iter
    (fun group ->
      match group with
      | Schedule.Acyclic bi ->
          incr evaluations;
          bump counts bi;
          ignore (apply_block ?supervisor ?causal c ~bufs nets bi)
      | Schedule.Cyclic members ->
          (* Local domain height = nets written inside the SCC; one
             extra round detects stability. *)
          let scc_nets =
            Array.fold_left
              (fun acc bi ->
                let _, _, outs = c.Graph.c_blocks.(bi) in
                acc + Array.length outs)
              0 members
          in
          let rounds =
            iterate_scc ?supervisor ?causal c nets ~bufs ~members
              ~bound:(scc_nets + 2) ~counts ~evaluations
          in
          if rounds > !max_rounds then max_rounds := rounds)
    (Schedule.groups schedule);
  (!max_rounds, !evaluations)

(* ------------------------------------------------------------------ *)
(* Worklist: every block is seeded once; afterwards a block re-enters
   the queue only when one of its input nets actually changed.          *)
(* ------------------------------------------------------------------ *)

let eval_worklist ?supervisor ?causal c nets ~bufs ~seed ~counts =
  let n_blocks = Array.length c.Graph.c_blocks in
  let queue = Queue.create () in
  let in_queue = Array.make n_blocks false in
  let eval_count = Array.make n_blocks 0 in
  Array.iter
    (fun bi ->
      Queue.push bi queue;
      in_queue.(bi) <- true)
    seed;
  let evaluations = ref 0 in
  (* Monotone blocks change each net at most n_nets times in total, so
     every block re-enters the queue a bounded number of times. *)
  let max_evaluations = (n_blocks + 1) * (c.Graph.n_nets + 2) in
  while not (Queue.is_empty queue) do
    let bi = Queue.pop queue in
    in_queue.(bi) <- false;
    incr evaluations;
    bump counts bi;
    eval_count.(bi) <- eval_count.(bi) + 1;
    if !evaluations > max_evaluations then
      raise (Nonmonotonic "worklist exceeded the monotone evaluation bound");
    let _, _, out_nets = c.Graph.c_blocks.(bi) in
    let before = bufs.b_out.(bi) in
    for port = 0 to Array.length out_nets - 1 do
      before.(port) <- nets.(out_nets.(port))
    done;
    if apply_block ?supervisor ?causal c ~bufs nets bi then
      Array.iteri
        (fun port net ->
          if not (Domain.equal before.(port) nets.(net)) then
            Array.iter
              (fun consumer ->
                if not in_queue.(consumer) then begin
                  Queue.push consumer queue;
                  in_queue.(consumer) <- true
                end)
              c.Graph.c_consumers.(net))
        out_nets
  done;
  let deepest = Array.fold_left max 1 eval_count in
  (deepest, !evaluations)

(* ------------------------------------------------------------------ *)
(* Fused: execute a precompiled Fuse plan. Acyclic blocks store their
   outputs directly into net slots (single producer + topological order
   make the direct store exact); cyclic SCCs fall back to the bounded
   lub iteration above. With a supervisor, kernel steps still run on
   their slot closures and only a raising step is replayed under
   Supervisor.guard — same containment, same substitution.             *)
(* ------------------------------------------------------------------ *)

(* Direct-store application of an acyclic opaque block: inputs from a
   reused buffer, outputs straight into the slots. *)
let apply_direct ?supervisor ?causal (c : Graph.compiled) ~bufs nets bi =
  let block, in_nets, out_nets = c.Graph.c_blocks.(bi) in
  let buf = bufs.b_in.(bi) in
  (match causal with
  | None -> ()
  | Some cz -> Telemetry.Causal.eval_begin cz ~block:bi ~reads:in_nets);
  let run () =
    for p = 0 to Array.length in_nets - 1 do
      buf.(p) <- nets.(in_nets.(p))
    done;
    Block.apply block buf
  in
  let outputs =
    match supervisor with
    | None -> run ()
    | Some sup -> Supervisor.guard sup ~bi ~run
  in
  for port = 0 to Array.length out_nets - 1 do
    nets.(out_nets.(port)) <- outputs.(port)
  done;
  match causal with
  | None -> ()
  | Some cz ->
      (match supervisor with
      | Some sup -> (
          match Supervisor.containment sup bi with
          | Some tag -> Telemetry.Causal.set_tag cz tag
          | None -> ())
      | None -> ());
      (* single producer + topological order make the direct store the
         establishing write; a tagged substitution records its ⊥ ports
         too, so absent values keep their provenance *)
      let tagged = Telemetry.Causal.pending_tag cz <> "" in
      for port = 0 to Array.length out_nets - 1 do
        let v = outputs.(port) in
        if tagged || Domain.is_def v then
          Telemetry.Causal.eval_write cz ~net:out_nets.(port) v
      done;
      Telemetry.Causal.eval_commit cz

let eval_fused ?supervisor ?causal c nets ~bufs ~plan ~counts =
  let evaluations = ref 0 in
  let max_rounds = ref 1 in
  let ops = plan.Fuse.f_ops in
  let n = Array.length ops in
  (match (supervisor, causal) with
  | None, None when Array.length counts = 0 ->
      (* Hot path: the fast lane. Chains are already collapsed into
         closures, so the pass is a bare sweep over them; the block
         applications it stands for are accounted in one add. *)
      evaluations := plan.Fuse.f_fast_evals;
      let fast = plan.Fuse.f_fast in
      for k = 0 to Array.length fast - 1 do
        match fast.(k) with
        | Fuse.Frun run -> run nets
        | Fuse.Fiter (members, bound) ->
            let rounds =
              iterate_scc c nets ~bufs ~members ~bound ~counts ~evaluations
            in
            if rounds > !max_rounds then max_rounds := rounds
      done;
      (* serve environment-read fork/identity ports from their alias *)
      let dst = plan.Fuse.f_copy_dst and src = plan.Fuse.f_copy_src in
      for k = 0 to Array.length dst - 1 do
        nets.(dst.(k)) <- nets.(src.(k))
      done
  | _, None ->
      (* Counted and/or supervised: block by block, every net
         materialized. Kernel steps run on their slot closures; under a
         supervisor a raising step (it wrote nothing) is replayed once
         through the guarded direct store, which retries, contains and
         logs as if guarded from the start — kernels are pure, so the
         replay is unobservable. Quarantined and contained blocks, opaque
         blocks and SCC members go through Supervisor.guard. *)
      for k = 0 to n - 1 do
        match ops.(k) with
        | Fuse.Step (bi, step) -> (
            incr evaluations;
            bump counts bi;
            match supervisor with
            | None -> step nets
            | Some sup ->
                if not (Supervisor.run_direct sup ~bi step nets) then
                  apply_direct ~supervisor:sup c ~bufs nets bi)
        | Fuse.Generic bi ->
            incr evaluations;
            bump counts bi;
            apply_direct ?supervisor c ~bufs nets bi
        | Fuse.Iterate (members, bound) ->
            let rounds =
              iterate_scc ?supervisor c nets ~bufs ~members ~bound ~counts
                ~evaluations
            in
            if rounds > !max_rounds then max_rounds := rounds
      done
  | _, Some _ ->
      (* Traced: kernel steps would hide their writes from the causal
         sink, so every acyclic block takes the (guarded, recorded)
         direct-store path. Folded blocks stay folded — they are
         constant, cannot fault, and are recorded as template bindings
         by the caller. *)
      for k = 0 to n - 1 do
        match ops.(k) with
        | Fuse.Step (bi, _) | Fuse.Generic bi ->
            incr evaluations;
            bump counts bi;
            apply_direct ?supervisor ?causal c ~bufs nets bi
        | Fuse.Iterate (members, bound) ->
            let rounds =
              iterate_scc ?supervisor ?causal c nets ~bufs ~members ~bound
                ~counts ~evaluations
            in
            if rounds > !max_rounds then max_rounds := rounds
      done);
  (!max_rounds, !evaluations)

(* ------------------------------------------------------------------ *)

let eval (c : Graph.compiled) ~inputs ~delay_values ?order ?(strategy = Chaotic)
    ?schedule ?fuse ?buffers ?nets ?(eval_counts = [||]) ?supervisor ?causal ()
    =
  (match (order, strategy) with
  | Some _, (Scheduled | Worklist | Fused) ->
      invalid_arg
        (Printf.sprintf
           "fixpoint: explicit evaluation order requires the chaotic \
            strategy, not %s"
           (strategy_name strategy))
  | _ -> ());
  let plan =
    match strategy with
    | Fused -> (
        match fuse with
        | Some p ->
            if
              p.Fuse.f_n_nets <> c.Graph.n_nets
              || p.Fuse.f_n_blocks <> Array.length c.Graph.c_blocks
            then invalid_arg "fixpoint: fused plan does not match the graph";
            Some p
        | None -> Some (Fuse.compile ?schedule c))
    | Chaotic | Scheduled | Worklist -> None
  in
  let nets =
    match nets with
    | None -> Array.make c.Graph.n_nets Domain.Bottom
    | Some buf ->
        if Array.length buf <> c.Graph.n_nets then
          invalid_arg "fixpoint: net buffer length mismatch";
        buf
  in
  (* The fused template preloads folded constant nets; other strategies
     start from all-⊥. The fast lane (no supervisor, no counting)
     restores only the slots a pass can leave stale — everything else
     is rewritten unconditionally or aliased away. The counting and
     supervised paths run conditional per-block steps over every net,
     so they need the full blit. *)
  (match plan with
  | Some p
    when Option.is_none supervisor && Option.is_none causal
         && Array.length eval_counts = 0 ->
      let template = p.Fuse.f_template and rlist = p.Fuse.f_reset in
      for k = 0 to Array.length rlist - 1 do
        let s = rlist.(k) in
        nets.(s) <- template.(s)
      done
  | Some p -> Array.blit p.Fuse.f_template 0 nets 0 (Array.length nets)
  | None -> Array.fill nets 0 (Array.length nets) Domain.Bottom);
  List.iter
    (fun (label, v) ->
      match Graph.input_net c label with
      | Some net -> nets.(net) <- v
      | None -> invalid_arg (Printf.sprintf "fixpoint: unknown input '%s'" label))
    inputs;
  if Array.length delay_values <> Array.length c.Graph.c_delays then
    invalid_arg "fixpoint: delay vector length mismatch";
  Array.iteri
    (fun i (_, out_net, _) -> nets.(out_net) <- delay_values.(i))
    c.Graph.c_delays;
  (* Bracket this evaluation as one traced instant and record the
     instant-start bindings: folded constants (fused template), driven
     environment inputs, then delay crossings (whose reads resolve
     against the previous instant's writers). *)
  let causal_instant =
    match causal with
    | None -> false
    | Some cz ->
        let opened =
          if Telemetry.Causal.in_instant cz then false
          else begin
            Telemetry.Causal.begin_instant cz;
            true
          end
        in
        (match plan with
        | Some p ->
            List.iter
              (fun (net, v) ->
                Telemetry.Causal.record_binding cz ~kind:Telemetry.Causal.Folded
                  ~net v)
              (Fuse.constant_nets p)
        | None -> ());
        List.iter
          (fun (label, v) ->
            match Graph.input_net c label with
            | Some net ->
                Telemetry.Causal.record_binding cz ~kind:Telemetry.Causal.Input
                  ~net v
            | None -> ())
          inputs;
        Array.iteri
          (fun i (in_net, out_net, _) ->
            Telemetry.Causal.record_binding cz ~kind:Telemetry.Causal.Delay
              ~net:out_net ~src:in_net delay_values.(i))
          c.Graph.c_delays;
        opened
  in
  let counts = eval_counts in
  let bufs = match buffers with Some b -> b | None -> make_buffers c in
  (* Standalone use (no Simulate driving the lifecycle): bracket this
     evaluation as one supervised instant. *)
  let auto_instant =
    match supervisor with
    | Some sup ->
        Supervisor.attach sup c;
        Supervisor.bind_nets sup nets;
        if Supervisor.in_instant sup then false
        else begin
          Supervisor.begin_instant sup;
          true
        end
    | None -> false
  in
  if Array.length counts > 0 && Array.length counts <> Array.length c.Graph.c_blocks
  then invalid_arg "fixpoint: eval_counts length mismatch";
  let iterations, block_evaluations =
    match strategy with
    | Chaotic -> eval_chaotic ?supervisor ?causal c nets ~bufs ~order ~counts
    | Scheduled ->
        let schedule =
          match schedule with
          | Some s -> s
          | None -> Schedule.of_compiled c
        in
        eval_scheduled ?supervisor ?causal c nets ~bufs ~schedule ~counts
    | Worklist ->
        let seed =
          match schedule with
          | Some s -> Schedule.linear_order s
          | None -> Array.init (Array.length c.Graph.c_blocks) (fun i -> i)
        in
        eval_worklist ?supervisor ?causal c nets ~bufs ~seed ~counts
    | Fused ->
        eval_fused ?supervisor ?causal c nets ~bufs ~plan:(Option.get plan)
          ~counts
  in
  (match supervisor with
  | Some sup when auto_instant -> Supervisor.end_instant sup
  | _ -> ());
  (match causal with
  | Some cz when causal_instant -> Telemetry.Causal.end_instant cz
  | _ -> ());
  { nets; iterations; block_evaluations }

let outputs (c : Graph.compiled) result =
  Array.to_list
    (Array.map (fun (label, net) -> (label, result.nets.(net))) c.Graph.c_outputs)

let delay_next (c : Graph.compiled) result =
  Array.map (fun (in_net, _, _) -> result.nets.(in_net)) c.Graph.c_delays

let delay_next_into (c : Graph.compiled) result dst =
  let delays = c.Graph.c_delays in
  if Array.length dst <> Array.length delays then
    invalid_arg "fixpoint: delay vector length mismatch";
  for i = 0 to Array.length delays - 1 do
    let in_net, _, _ = delays.(i) in
    dst.(i) <- result.nets.(in_net)
  done
