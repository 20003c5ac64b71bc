module Json = Telemetry.Json
module Causal = Telemetry.Causal
module Monitor = Telemetry.Monitor
module Registry = Telemetry.Registry

let malformed what = invalid_arg ("Checkpoint.of_json: malformed " ^ what)

type t = {
  k_system : string;
  k_strategy : Fixpoint.strategy;
  k_policy : Supervisor.policy option;
  k_escalate_after : int;
  k_inject : Inject.spec list;
  k_seed : int;
  k_state : Simulate.state;
  k_supervisor : Json.t option;
  k_injector : (int * int) option;  (* (instant, fired) *)
  k_counters : (string * int) list option;
  k_monitor : Json.t option;
  k_causal : Json.t option;
  k_machine : Json.t option;
}

let instant t = t.k_state.Simulate.st_instant

let system t = t.k_system

let strategy t = t.k_strategy

let policy t = t.k_policy

let escalation_threshold t = t.k_escalate_after

let has_supervisor t = Option.is_some t.k_supervisor

let has_monitor t = Option.is_some t.k_monitor

let has_causal t = Option.is_some t.k_causal

let machine t = t.k_machine

(* ----------------------- causal state codec ----------------------- *)

let causal_state_json (st : Domain.t Causal.state) =
  Json.Obj
    [ ("capacity", Json.Int st.Causal.st_capacity);
      ("pushed", Json.Int st.Causal.st_pushed);
      ("instant", Json.Int st.Causal.st_instant);
      ("truncated", Json.Int st.Causal.st_truncated);
      ( "writers",
        Json.List
          (Array.to_list
             (Array.map (fun n -> Json.Int n) st.Causal.st_writers)) );
      ( "events",
        Json.List
          (List.map
             (Causal.event_json ~render:Codec.value_json)
             st.Causal.st_events) ) ]

let causal_int name j =
  match Json.member name j with
  | Some (Json.Int n) -> n
  | _ -> malformed ("causal " ^ name)

let causal_state_of_json j : Domain.t Causal.state =
  { Causal.st_capacity = causal_int "capacity" j;
    st_pushed = causal_int "pushed" j;
    st_instant = causal_int "instant" j;
    st_truncated = causal_int "truncated" j;
    st_writers =
      (match Json.member "writers" j with
      | Some (Json.List l) ->
          Array.of_list
            (List.map
               (function Json.Int n -> n | _ -> malformed "causal writers")
               l)
      | _ -> malformed "causal writers");
    st_events =
      (match Json.member "events" j with
      | Some (Json.List l) ->
          List.map (Causal.event_of_json ~unrender:Codec.value_of_json) l
      | _ -> malformed "causal events") }

(* ----------------------------- capture ---------------------------- *)

let capture ~system ?policy ?escalate_after ?(inject = []) ?(seed = 0)
    ?injector ?machine sim =
  let sup = Simulate.supervisor sim in
  (match sup with
  | Some s when Supervisor.in_instant s ->
      invalid_arg "Checkpoint.capture: instant open"
  | _ -> ());
  let policy =
    match (policy, sup) with
    | Some p, _ -> Some p
    | None, Some s -> Some (Supervisor.policy s)
    | None, None -> None
  in
  let escalate_after =
    match (escalate_after, sup) with
    | Some n, _ -> n
    | None, Some s -> Supervisor.escalation_threshold s
    | None, None -> 3
  in
  let inject =
    match injector with Some i -> Inject.specs i | None -> inject
  in
  { k_system = system;
    k_strategy = Simulate.strategy sim;
    k_policy = policy;
    k_escalate_after = escalate_after;
    k_inject = inject;
    k_seed = seed;
    k_state = Simulate.export_state sim;
    k_supervisor = Option.map Supervisor.state_json sup;
    k_injector =
      Option.map (fun i -> (Inject.instant i, Inject.fired i)) injector;
    k_counters =
      Option.map Registry.export_counters (Simulate.telemetry sim);
    k_monitor = Option.map Monitor.state_json (Simulate.monitor sim);
    k_causal =
      Option.map
        (fun c -> causal_state_json (Causal.export_state c))
        (Simulate.causal sim);
    k_machine = machine }

(* ----------------------------- resume ----------------------------- *)

type resumed = {
  r_sim : Simulate.t;
  r_supervisor : Supervisor.t option;
  r_injector : Inject.t option;
  r_monitor : Monitor.t option;
  r_telemetry : Registry.t option;
  r_causal : Domain.t Causal.t option;
}

let resume ?telemetry ?monitor ?supervisor t graph =
  let injector =
    if t.k_inject = [] then None else Some (Inject.make t.k_inject)
  in
  let graph' =
    match injector with
    | None -> graph
    | Some inj -> Inject.instrument inj graph
  in
  let supervisor =
    match (supervisor, t.k_supervisor) with
    | Some s, _ -> Some s
    | None, Some _ ->
        let policy =
          match t.k_policy with
          | Some p -> p
          | None -> malformed "supervisor state without a policy"
        in
        Some
          (Supervisor.create ~policy ~escalate_after:t.k_escalate_after ())
    | None, None -> None
  in
  let telemetry =
    match (telemetry, t.k_counters) with
    | Some r, _ -> Some r
    | None, Some _ -> Some (Registry.create ())
    | None, None -> None
  in
  let monitor =
    match (monitor, t.k_monitor) with
    | Some m, _ -> Some m
    | None, Some _ -> Some (Monitor.create ())
    | None, None -> None
  in
  let causal =
    Option.map
      (fun j -> Causal.of_state (causal_state_of_json j))
      t.k_causal
  in
  let sim =
    Simulate.create ~strategy:t.k_strategy ?telemetry ?supervisor ?monitor
      ?causal graph'
  in
  Simulate.import_state sim t.k_state;
  (match (supervisor, t.k_supervisor) with
  | Some s, Some st -> Supervisor.restore_state s st
  | _ -> ());
  (match (injector, t.k_injector) with
  | Some i, Some (instant, fired) -> Inject.restore_state i ~instant ~fired
  | Some i, None ->
      (* artifact predating injector capture: line the clock up with the
         simulator so persistence windows stay aligned *)
      Inject.restore_state i ~instant:t.k_state.Simulate.st_instant ~fired:0
  | _ -> ());
  (match (telemetry, t.k_counters) with
  | Some r, Some cs -> Registry.import_counters r cs
  | _ -> ());
  (match (monitor, t.k_monitor) with
  | Some m, Some st -> Monitor.restore_state m st
  | _ -> ());
  { r_sim = sim;
    r_supervisor = supervisor;
    r_injector = injector;
    r_monitor = monitor;
    r_telemetry = telemetry;
    r_causal = causal }

(* -------------------------- serialization ------------------------- *)

let opt_json f = function None -> Json.Null | Some v -> f v

let to_json t =
  Json.Obj
    [ ("version", Json.Int 2);
      ("system", Json.Str t.k_system);
      ("strategy", Json.Str (Fixpoint.strategy_name t.k_strategy));
      ( "policy",
        opt_json (fun p -> Json.Str (Supervisor.policy_name p)) t.k_policy );
      ("escalate_after", Json.Int t.k_escalate_after);
      ("inject", Json.List (List.map Codec.spec_json t.k_inject));
      ("seed", Json.Int t.k_seed);
      ("instant", Json.Int t.k_state.Simulate.st_instant);
      ("evaluations", Json.Int t.k_state.Simulate.st_evaluations);
      ("delays", Codec.vec_json t.k_state.Simulate.st_delays);
      ("nets", Codec.vec_json t.k_state.Simulate.st_nets);
      ("supervisor", opt_json Fun.id t.k_supervisor);
      ( "injector",
        opt_json
          (fun (instant, fired) ->
            Json.Obj
              [ ("instant", Json.Int instant); ("fired", Json.Int fired) ])
          t.k_injector );
      ( "counters",
        opt_json
          (fun cs ->
            Json.List
              (List.map
                 (fun (name, v) ->
                   Json.List [ Json.Str name; Json.Int v ])
                 cs))
          t.k_counters );
      ("monitor", opt_json Fun.id t.k_monitor);
      ("causal", opt_json Fun.id t.k_causal);
      ("machine", opt_json Fun.id t.k_machine) ]

let equal a b = Json.to_string (to_json a) = Json.to_string (to_json b)

let field name j =
  match Json.member name j with
  | Some v -> v
  | None -> invalid_arg ("Checkpoint.of_json: missing field " ^ name)

let int_field name j =
  match field name j with Json.Int n -> n | _ -> malformed name

let str_field name j =
  match field name j with Json.Str s -> s | _ -> malformed name

let opt_field name j =
  match Json.member name j with
  | None | Some Json.Null -> None
  | Some v -> Some v

let of_json j =
  (match Json.member "version" j with
  | Some (Json.Int 2) -> ()
  | _ -> invalid_arg "Checkpoint.of_json: unsupported checkpoint version");
  let strategy =
    match Fixpoint.strategy_of_string (str_field "strategy" j) with
    | Some s -> s
    | None -> malformed "strategy"
  in
  let policy =
    match field "policy" j with
    | Json.Null -> None
    | Json.Str s -> (
        match Supervisor.policy_of_string s with
        | Some p -> Some p
        | None -> malformed "policy")
    | _ -> malformed "policy"
  in
  { k_system = str_field "system" j;
    k_strategy = strategy;
    k_policy = policy;
    k_escalate_after = int_field "escalate_after" j;
    k_inject =
      (match field "inject" j with
      | Json.List l -> List.map Codec.spec_of_json l
      | _ -> malformed "inject");
    k_seed = int_field "seed" j;
    k_state =
      { Simulate.st_instant = int_field "instant" j;
        st_evaluations = int_field "evaluations" j;
        st_delays = Codec.vec_of_json "delays" (field "delays" j);
        st_nets = Codec.vec_of_json "nets" (field "nets" j) };
    k_supervisor = opt_field "supervisor" j;
    k_injector =
      Option.map
        (fun ij -> (int_field "instant" ij, int_field "fired" ij))
        (opt_field "injector" j);
    k_counters =
      Option.map
        (function
          | Json.List l ->
              List.map
                (function
                  | Json.List [ Json.Str name; Json.Int v ] -> (name, v)
                  | _ -> malformed "counters")
                l
          | _ -> malformed "counters")
        (opt_field "counters" j);
    k_monitor = opt_field "monitor" j;
    k_causal = opt_field "causal" j;
    k_machine = opt_field "machine" j }

(* ------------------------------ disk ------------------------------ *)

(* [save] is atomic ({!Codec.write_atomic}). It feeds the monitor's
   checkpoint-write accounting: byte volume and wall-clock write time on
   success, the data-loss failure flag on failure (the caller decides
   whether a failed write is fatal). *)
let save ?monitor t path =
  let payload = Json.to_string (to_json t) in
  let t0 = Unix.gettimeofday () in
  match Codec.write_atomic path payload with
  | () ->
      Option.iter
        (fun m ->
          Monitor.checkpoint_written m
            ~bytes:(String.length payload + 1)
            ~seconds:(Float.max 0. (Unix.gettimeofday () -. t0)))
        monitor
  | exception (Sys_error _ as e) ->
      Option.iter Monitor.checkpoint_write_failed monitor;
      raise e

(* [%!] anchors the name, so a temp file an interrupted save left
   behind ([checkpoint-N.json.<pid>.tmp]) never counts as checkpoint N. *)
let latest dir =
  Array.fold_left
    (fun best f ->
      match Scanf.sscanf_opt f "checkpoint-%d.json%!" (fun i -> i) with
      | Some i when (match best with Some (j, _) -> i > j | None -> true) ->
          Some (i, Filename.concat dir f)
      | _ -> best)
    None (Sys.readdir dir)

let load path = of_json (Codec.read_json path)
