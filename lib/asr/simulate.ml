type trace_entry = {
  instant : int;
  inputs : (string * Domain.t) list;
  outputs : (string * Domain.t) list;
  iterations : int;
}

type t = {
  compiled : Graph.compiled;
  schedule : Schedule.t;
  strategy : Fixpoint.strategy;
  fuse : Fuse.t option;  (* precompiled plan, Some iff strategy = Fused *)
  buffers : Fixpoint.buffers;
  order : int array option;
  mutable nets_buffer : Domain.t array;  (* last fixed point *)
  mutable spare : Domain.t array;  (* churned instants land here *)
  mutable delays : Domain.t array;
  mutable instant : int;
  mutable evaluations : int;
  telemetry : Telemetry.Registry.t option;
  supervisor : Supervisor.t option;
  monitor : Telemetry.Monitor.t option;
  causal : Domain.t Telemetry.Causal.t option;
  mon_churn_k : int;  (* Monitor.churn_every, hoisted; 0 w/o monitor *)
  eval_counts : int array;  (* zeroed by each flush; [||] w/o telemetry *)
  block_counters : Telemetry.Registry.counter array;
}

let initial_delays compiled =
  Array.map (fun (_, _, init) -> init) compiled.Graph.c_delays

let create ?order ?strategy ?telemetry ?supervisor ?monitor ?causal graph =
  let compiled = Graph.compile graph in
  (match causal with
  | Some cz when Telemetry.Causal.n_nets cz <> compiled.Graph.n_nets ->
      invalid_arg "Simulate.create: causal sink net count mismatch"
  | _ -> ());
  (* causal-ring loss rides along in the monitor's data_loss object *)
  (match (monitor, causal) with
  | Some mon, Some cz ->
      Telemetry.Monitor.set_causal_source mon (fun () ->
          Telemetry.Causal.data_loss cz)
  | _ -> ());
  (match supervisor with
  | Some sup -> Supervisor.attach sup compiled
  | None -> ());
  (* supervisor fault events feed the monitor's per-block health; the
     glue lives here because telemetry cannot depend on asr types *)
  (match (monitor, supervisor) with
  | Some mon, Some sup ->
      Supervisor.set_observer sup (fun ev ->
          match ev with
          | Supervisor.Ev_fault f ->
              Telemetry.Monitor.block_fault mon ~block:f.Supervisor.f_block_name
          | Supervisor.Ev_recovered f ->
              Telemetry.Monitor.block_recovered mon
                ~block:f.Supervisor.f_block_name
          | Supervisor.Ev_quarantined f ->
              Telemetry.Monitor.quarantine mon ~block:f.Supervisor.f_block_name)
  | _ -> ());
  let schedule = Schedule.of_compiled compiled in
  let strategy =
    match (strategy, order) with
    | Some s, _ -> s
    | None, Some _ -> Fixpoint.Chaotic
    | None, None -> Fixpoint.Worklist
  in
  (match (order, strategy) with
  | Some _, (Fixpoint.Scheduled | Fixpoint.Worklist | Fixpoint.Fused) ->
      invalid_arg
        "Simulate.create: explicit evaluation order requires the chaotic \
         strategy"
  | _ -> ());
  let n_blocks = Array.length compiled.Graph.c_blocks in
  { compiled;
    schedule;
    strategy;
    fuse =
      (match strategy with
      | Fixpoint.Fused -> Some (Fuse.compile ~schedule compiled)
      | _ -> None);
    buffers = Fixpoint.make_buffers compiled;
    order;
    nets_buffer = Array.make compiled.Graph.n_nets Domain.Bottom;
    spare =
      (match (telemetry, monitor) with
      | Some _, _ | _, Some _ -> Array.make compiled.Graph.n_nets Domain.Bottom
      | None, None -> [||]);
    delays = initial_delays compiled;
    instant = 0;
    evaluations = 0;
    telemetry;
    supervisor;
    monitor;
    causal;
    mon_churn_k =
      (match monitor with
      | Some mon -> Telemetry.Monitor.churn_every mon
      | None -> 0);
    eval_counts =
      (match telemetry with
      | Some _ -> Array.make n_blocks 0
      | None -> [||]);
    block_counters =
      (match telemetry with
      | Some reg ->
          Array.map
            (fun (block, _, _) ->
              Telemetry.Registry.counter reg
                ("asr.block." ^ block.Block.name ^ ".evals"))
            compiled.Graph.c_blocks
      | None -> [||]) }

(* One instant: run the fixed point into a reused net buffer, harvest
   outputs and the next delay state before the buffer is recycled. *)
let react t inputs =
  let tele =
    match t.telemetry with
    | Some reg when Telemetry.Registry.is_enabled reg -> Some reg
    | _ -> None
  in
  (match tele with
  | Some reg -> Telemetry.Registry.enter reg ~cat:"asr" "instant"
  | None -> ());
  (match t.monitor with
  | Some mon -> Telemetry.Monitor.instant_begin mon
  | None -> ());
  (match t.supervisor with
  | Some sup -> Supervisor.begin_instant sup
  | None -> ());
  (* churn — nets whose fixed point differs from the previous instant's —
     feeds the telemetry span and the monitor record. The O(nets) scan
     runs every instant with telemetry, else every [Monitor.churn_every]
     instants, at instants k-1, 2k-1, ... so runs shorter than k never
     pay it. A churned instant settles into [spare] and is compared,
     read-only, with [nets_buffer] (the last fixed point); the buffers
     then swap, so nothing is copied. *)
  let want_churn =
    tele <> None
    || (t.mon_churn_k > 0 && (t.instant + 1) mod t.mon_churn_k = 0)
  in
  let nets = if want_churn then t.spare else t.nets_buffer in
  let result =
    Fixpoint.eval t.compiled ~inputs ~delay_values:t.delays ?order:t.order
      ~strategy:t.strategy ~schedule:t.schedule ?fuse:t.fuse
      ~buffers:t.buffers ~nets
      ~eval_counts:(match tele with Some _ -> t.eval_counts | None -> [||])
      ?supervisor:t.supervisor ?causal:t.causal ()
  in
  let churn =
    if not want_churn then 0
    else begin
      let last = t.nets_buffer and c = ref 0 in
      for i = 0 to Array.length nets - 1 do
        let v = Array.unsafe_get nets i and w = Array.unsafe_get last i in
        if v != w && not (Domain.equal v w) then incr c
      done;
      t.nets_buffer <- nets;
      t.spare <- last;
      !c
    end
  in
  (* the monitor records this instant *before* [Supervisor.end_instant],
     so a quarantine escalation's flight dump covers the instant that
     triggered it *)
  (match t.monitor with
  | Some mon ->
      Telemetry.Monitor.instant_end mon ~iterations:result.Fixpoint.iterations
        ~block_evals:result.Fixpoint.block_evaluations ~net_churn:churn
        ~faults:
          (match t.supervisor with
          | Some sup -> Supervisor.instant_fault_count sup
          | None -> 0)
  | None -> ());
  (match t.supervisor with
  | Some sup -> Supervisor.end_instant sup
  | None -> ());
  (* in place: the bound values were copied into the net slots already,
     and [delay_state] hands out copies *)
  Fixpoint.delay_next_into t.compiled result t.delays;
  t.instant <- t.instant + 1;
  t.evaluations <- t.evaluations + result.Fixpoint.block_evaluations;
  (match tele with
  | Some reg ->
      let counts = t.eval_counts in
      for bi = 0 to Array.length counts - 1 do
        let n = Array.unsafe_get counts bi in
        if n > 0 then begin
          Telemetry.Registry.add t.block_counters.(bi) n;
          Array.unsafe_set counts bi 0
        end
      done;
      Telemetry.Registry.count reg "asr.instants" 1;
      Telemetry.Registry.count reg "asr.block_evaluations"
        result.Fixpoint.block_evaluations;
      Telemetry.Registry.observe_value reg "asr.fixpoint_iterations"
        result.Fixpoint.iterations;
      let fault_args =
        match t.supervisor with
        | Some sup ->
            [ ( "faults",
                Telemetry.Registry.Int (Supervisor.instant_fault_count sup) ) ]
        | None -> []
      in
      Telemetry.Registry.exit reg
        ~args:
          ([ ("instant", Telemetry.Registry.Int (t.instant - 1));
             ("iterations", Telemetry.Registry.Int result.Fixpoint.iterations);
             ( "block_evaluations",
               Telemetry.Registry.Int result.Fixpoint.block_evaluations );
             ("net_churn", Telemetry.Registry.Int churn) ]
          @ fault_args)
        ()
  | None -> ());
  (Fixpoint.outputs t.compiled result, result.Fixpoint.iterations)

let step t inputs = fst (react t inputs)

let run t stream =
  List.map
    (fun inputs ->
      let instant = t.instant in
      let outputs, iterations = react t inputs in
      { instant; inputs; outputs; iterations })
    stream

let strategy t = t.strategy

let fuse_plan t = t.fuse

let supervisor t = t.supervisor

let monitor t = t.monitor

let causal t = t.causal

let telemetry t = t.telemetry

let net_values t = Array.copy t.nets_buffer

let schedule t = t.schedule

let instant_count t = t.instant

let block_evaluations t = t.evaluations

let delay_state t = Array.copy t.delays

(* ------------------------- checkpoint state ----------------------- *)

type state = {
  st_instant : int;
  st_evaluations : int;
  st_delays : Domain.t array;
  st_nets : Domain.t array;
}

(* Why this is the complete simulator-side state: a fresh simulator is
   indistinguishable from a reset one (the fused fast lane re-fills its
   template slots from [f_template] each instant, and the plain paths
   refill from ⊥), so everything an instant's outcome depends on is
   the delay registers, the last fixed point ([nets_buffer] — what
   [net_values] reports between instants, and the reference the next
   churn is counted against) and the two counters. [spare] carries no
   state: every churned instant overwrites it. Attachment state
   (supervisor, monitor, causal, registry) is checkpointed by the
   attachments themselves. *)
let export_state t =
  { st_instant = t.instant;
    st_evaluations = t.evaluations;
    st_delays = Array.copy t.delays;
    st_nets = Array.copy t.nets_buffer }

let import_state t st =
  if Array.length st.st_delays <> Array.length t.delays then
    invalid_arg "Simulate.import_state: delay count mismatch";
  if Array.length st.st_nets <> Array.length t.nets_buffer then
    invalid_arg "Simulate.import_state: net count mismatch";
  t.instant <- st.st_instant;
  t.evaluations <- st.st_evaluations;
  Array.blit st.st_delays 0 t.delays 0 (Array.length st.st_delays);
  Array.blit st.st_nets 0 t.nets_buffer 0 (Array.length st.st_nets)

let reset t =
  t.delays <- initial_delays t.compiled;
  t.instant <- 0;
  t.evaluations <- 0;
  Array.fill t.nets_buffer 0 (Array.length t.nets_buffer) Domain.Bottom;
  Array.fill t.spare 0 (Array.length t.spare) Domain.Bottom;
  (match t.supervisor with
  | Some sup -> Supervisor.reset sup
  | None -> ())
