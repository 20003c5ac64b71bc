type policy = Fail_fast | Hold_last | Absent | Retry of int

type fault_class = Trap | Budget_exceeded | Heap_exhausted | Step_limit | Retraction

type action =
  | Held
  | Went_absent
  | Recovered of int
  | Escalated
  | Aborted

type fault = {
  f_instant : int;
  f_block : int;
  f_block_name : string;
  f_class : fault_class;
  f_detail : string;
  f_action : action;
}

exception Fatal of fault

type event =
  | Ev_fault of fault
  | Ev_recovered of fault
  | Ev_quarantined of fault

type t = {
  policy : policy;
  escalate_after : int;
  max_log : int;
  classify : exn -> (fault_class * string) option;
  step_budget : int option;
  telemetry : Telemetry.Registry.t option;
  (* Per-block state, sized lazily at first {!attach}. *)
  mutable n_blocks : int; (* -1 until attached *)
  mutable names : string array;
  mutable out_nets : int array array;
  (* A block's good outputs this instant are its output nets in [cur],
     committed at [end_instant]. Per-instant flags are instant stamps,
     so opening an instant clears nothing. *)
  mutable committed : Domain.t array array; (* last good outputs, prev instants *)
  mutable cur : Domain.t array; (* net array bound for the current instant *)
  mutable good_at : int array; (* last instant with good outputs *)
  mutable contained_at : int array; (* last instant contained: substitute *)
  mutable apps : int array; (* applications in instant [apps_at] *)
  mutable apps_at : int array;
  mutable consec : int array; (* consecutive faulty instants *)
  mutable quarantined : bool array;
  mutable instant : int;
  mutable in_instant : bool;
  mutable rev_log : fault list;
  mutable log_len : int;
  mutable dropped_log : int;
  mutable total_faults : int;
  mutable total_recovered : int;
  mutable instant_faults : int;
  mutable observer : (event -> unit) option;
}

let policy_name = function
  | Fail_fast -> "fail-fast"
  | Hold_last -> "hold-last"
  | Absent -> "absent"
  | Retry n -> Printf.sprintf "retry:%d" n

let policy_of_string s =
  match s with
  | "fail" | "fail-fast" -> Some Fail_fast
  | "hold" | "hold-last" -> Some Hold_last
  | "absent" -> Some Absent
  | _ ->
      let prefix = "retry:" in
      let lp = String.length prefix in
      if String.length s > lp && String.sub s 0 lp = prefix then
        match int_of_string_opt (String.sub s lp (String.length s - lp)) with
        | Some n when n >= 0 -> Some (Retry n)
        | _ -> None
      else None

let class_name = function
  | Trap -> "trap"
  | Budget_exceeded -> "budget-exceeded"
  | Heap_exhausted -> "heap-exhausted"
  | Step_limit -> "step-limit"
  | Retraction -> "retraction"

let action_name = function
  | Held -> "held"
  | Went_absent -> "absent"
  | Recovered n -> Printf.sprintf "recovered after %d failed attempt%s" n
                     (if n = 1 then "" else "s")
  | Escalated -> "escalated to permanent quarantine"
  | Aborted -> "aborted (fail-fast)"

let fault_to_string f =
  Printf.sprintf "instant %d: block %d (%s) %s: %s -> %s" f.f_instant f.f_block
    f.f_block_name (class_name f.f_class) f.f_detail (action_name f.f_action)

(* The default classifier recognizes injected faults plus the standard
   exceptions a misbehaving block function can raise. Unknown
   exceptions return [None] and propagate: the supervisor contains
   faults, it does not swallow bugs in the harness itself. *)
let default_classify = function
  | Inject.Injected (k, msg) ->
      let cls =
        match k with
        | Inject.Trap -> Trap
        | Inject.Cycle_spike -> Budget_exceeded
        | Inject.Alloc_storm -> Heap_exhausted
      in
      Some (cls, msg)
  | Division_by_zero -> Some (Trap, "division by zero")
  | Invalid_argument m -> Some (Trap, "invalid argument: " ^ m)
  | Failure m -> Some (Trap, m)
  | Stack_overflow -> Some (Trap, "stack overflow")
  | Out_of_memory -> Some (Heap_exhausted, "out of memory")
  | _ -> None

(* Instant stamp no instant matches (instants count up from 0). *)
let never = min_int

let create ?(policy = Hold_last) ?(escalate_after = 3) ?(max_log = 1000)
    ?step_budget ?classify ?telemetry () =
  if escalate_after < 1 then
    invalid_arg "Supervisor.create: escalate_after must be >= 1";
  (match step_budget with
  | Some k when k < 1 ->
      invalid_arg "Supervisor.create: step_budget must be >= 1"
  | _ -> ());
  let classify =
    match classify with
    | None -> default_classify
    | Some f -> (
        fun e -> match f e with Some _ as r -> r | None -> default_classify e)
  in
  { policy;
    escalate_after;
    max_log;
    classify;
    step_budget;
    telemetry;
    n_blocks = -1;
    names = [||];
    out_nets = [||];
    committed = [||];
    cur = [||];
    good_at = [||];
    contained_at = [||];
    apps = [||];
    apps_at = [||];
    consec = [||];
    quarantined = [||];
    instant = 0;
    in_instant = false;
    rev_log = [];
    log_len = 0;
    dropped_log = 0;
    total_faults = 0;
    total_recovered = 0;
    instant_faults = 0;
    observer = None }

let set_observer t f = t.observer <- Some f

let notify t ev = match t.observer with Some f -> f ev | None -> ()

let attach t (c : Graph.compiled) =
  let n = Array.length c.Graph.c_blocks in
  if t.n_blocks = -1 then begin
    t.n_blocks <- n;
    t.names <- Array.map (fun (b, _, _) -> b.Block.name) c.Graph.c_blocks;
    t.out_nets <- Array.map (fun (_, _, outs) -> outs) c.Graph.c_blocks;
    t.committed <-
      Array.map (fun outs -> Array.make (Array.length outs) Domain.Bottom)
        t.out_nets;
    t.good_at <- Array.make n never;
    t.contained_at <- Array.make n never;
    t.apps <- Array.make n 0;
    t.apps_at <- Array.make n never;
    t.consec <- Array.make n 0;
    t.quarantined <- Array.make n false
  end
  else if t.n_blocks <> n then
    invalid_arg
      (Printf.sprintf
         "Supervisor: already attached to a graph with %d blocks, got %d"
         t.n_blocks n)

let in_instant t = t.in_instant

let bind_nets t nets = t.cur <- nets

let begin_instant t =
  if t.in_instant then invalid_arg "Supervisor.begin_instant: instant open";
  t.in_instant <- true;
  t.instant_faults <- 0

let good t bi = t.good_at.(bi) = t.instant

let contained t bi = t.contained_at.(bi) = t.instant

let mark_good t bi = t.good_at.(bi) <- t.instant

let count_telemetry t name n =
  match t.telemetry with
  | Some reg -> Telemetry.Registry.count reg name n
  | None -> ()

let log_fault t f =
  if t.log_len < t.max_log then begin
    t.rev_log <- f :: t.rev_log;
    t.log_len <- t.log_len + 1
  end
  else t.dropped_log <- t.dropped_log + 1

(* One pass commits and advances the watchdog. A block good this instant
   commits its output nets in the bound fixed point (single producer, so
   they hold exactly what it wrote, or what it was frozen at); a block
   contained before producing any keeps its last good values. *)
let end_instant t =
  if not t.in_instant then invalid_arg "Supervisor.end_instant: no instant open";
  t.in_instant <- false;
  let k = t.instant in
  for bi = 0 to t.n_blocks - 1 do
    if t.good_at.(bi) = k then begin
      let outs = t.out_nets.(bi) and dst = t.committed.(bi) in
      for p = 0 to Array.length outs - 1 do
        dst.(p) <- t.cur.(outs.(p))
      done
    end;
    if t.contained_at.(bi) = k then begin
      t.consec.(bi) <- t.consec.(bi) + 1;
      if t.consec.(bi) >= t.escalate_after && not t.quarantined.(bi) then begin
        t.quarantined.(bi) <- true;
        let f =
          { f_instant = k;
            f_block = bi;
            f_block_name = t.names.(bi);
            f_class = Trap;
            f_detail =
              Printf.sprintf "%d consecutive faulty instants" t.consec.(bi);
            f_action = Escalated }
        in
        log_fault t f;
        count_telemetry t "asr.supervisor.quarantined" 1;
        notify t (Ev_quarantined f)
      end
    end
    else if not t.quarantined.(bi) then t.consec.(bi) <- 0
  done;
  t.instant <- k + 1

(* The substitution for a contained block must be consistent (under lub)
   with whatever the block already wrote to its nets this instant, or
   containment itself would trigger a retraction. If the block produced
   good outputs earlier in the instant, its output nets hold them (lub
   of every application's outputs, single producer), and those values
   are the only safe choice. Otherwise the nets hold ⊥ for this block,
   and anything is consistent: [Hold_last]/[Retry] substitute the last
   committed outputs, [Absent] substitutes ⊥. *)
let substitution t bi =
  if good t bi then Array.map (fun n -> t.cur.(n)) t.out_nets.(bi)
  else
    match t.policy with
    | Absent -> Array.make (Array.length t.out_nets.(bi)) Domain.Bottom
    | Fail_fast | Hold_last | Retry _ -> Array.copy t.committed.(bi)

let fault_action t bi =
  if good t bi then Held
  else match t.policy with Absent -> Went_absent | _ -> Held

let contain t ~bi ~cls ~detail =
  t.contained_at.(bi) <- t.instant;
  t.total_faults <- t.total_faults + 1;
  t.instant_faults <- t.instant_faults + 1;
  let action = if t.policy = Fail_fast then Aborted else fault_action t bi in
  let f =
    { f_instant = t.instant;
      f_block = bi;
      f_block_name = t.names.(bi);
      f_class = cls;
      f_detail = detail;
      f_action = action }
  in
  log_fault t f;
  count_telemetry t "asr.supervisor.faults" 1;
  count_telemetry t ("asr.supervisor.fault." ^ class_name cls) 1;
  notify t (Ev_fault f);
  if t.policy = Fail_fast then raise (Fatal f);
  substitution t bi

let guard t ~bi ~run =
  if t.n_blocks = -1 then invalid_arg "Supervisor.guard: not attached";
  if bi < 0 || bi >= t.n_blocks then
    invalid_arg (Printf.sprintf "Supervisor.guard: no block %d" bi);
  if t.quarantined.(bi) || contained t bi then substitution t bi
  else begin
    let apps = if t.apps_at.(bi) = t.instant then t.apps.(bi) + 1 else 1 in
    t.apps.(bi) <- apps;
    t.apps_at.(bi) <- t.instant;
    match t.step_budget with
    | Some k when apps > k ->
        contain t ~bi ~cls:Step_limit
          ~detail:
            (Printf.sprintf "more than %d applications in one instant" k)
    | _ ->
        let retries = match t.policy with Retry n -> max 0 n | _ -> 0 in
        let rec attempt failed =
          match run () with
          | outs ->
              if failed > 0 then begin
                t.total_recovered <- t.total_recovered + 1;
                let f =
                  { f_instant = t.instant;
                    f_block = bi;
                    f_block_name = t.names.(bi);
                    f_class = Trap;
                    f_detail = "transient fault absorbed by retry";
                    f_action = Recovered failed }
                in
                log_fault t f;
                count_telemetry t "asr.supervisor.recovered" 1;
                notify t (Ev_recovered f)
              end;
              mark_good t bi;
              outs
          | exception e -> (
              match t.classify e with
              | None -> raise e
              | Some (cls, detail) ->
                  if failed < retries then attempt (failed + 1)
                  else
                    let detail =
                      if retries > 0 then
                        Printf.sprintf "%s (after %d retries)" detail retries
                      else detail
                    in
                    contain t ~bi ~cls ~detail)
        in
        attempt 0
  end

(* A pure kernel step run outside [guard]: no closure, no staging, no
   output array — the step reads and writes the bound nets itself. A
   raising step writes nothing (kernel steps compute before they
   store), so [false] leaves the caller free to replay the block under
   [guard], which then retries, contains and logs exactly as if it had
   been guarded from the start. Quarantined and contained blocks are
   never run here: their substitution stands. *)
let run_direct t ~bi step nets =
  if t.quarantined.(bi) || contained t bi then false
  else
    match step nets with
    | () ->
        mark_good t bi;
        true
    | exception _ -> false

(* Called by the fixpoint when lub-merging a block's outputs hit
   [Domain.Inconsistent]: the block retracted a defined value. The only
   substitution consistent with the nets is their current contents, so
   containment here means "freeze the block at what it already wrote"
   (the bound nets already hold it). Returns [true] when contained;
   [false] when the block was already contained this instant and still
   produced a retraction — that is a supervisor-level invariant
   violation and the caller should raise [Fixpoint.Nonmonotonic] as it
   would unsupervised. *)
let retract t ~bi ~detail =
  if t.n_blocks = -1 || bi < 0 || bi >= t.n_blocks then false
  else if contained t bi then false
  else begin
    mark_good t bi;
    ignore (contain t ~bi ~cls:Retraction ~detail);
    true
  end

(* -------------------------- inspection --------------------------- *)

let policy t = t.policy

let escalation_threshold t = t.escalate_after

let faults t = List.rev t.rev_log

let fault_count t = t.total_faults

let recovered_count t = t.total_recovered

let dropped_faults t = t.dropped_log

let instant_fault_count t = t.instant_faults

let is_quarantined t bi = t.n_blocks > 0 && bi >= 0 && bi < t.n_blocks && t.quarantined.(bi)

(* Provenance tag for a causal trace: when block [bi]'s outputs this
   instant are a containment substitution, name the mechanism and the
   value source so held/absent values carry their policy in the trace. *)
let containment t bi =
  if t.n_blocks <= 0 || bi < 0 || bi >= t.n_blocks then None
  else
    let source () =
      if good t bi then "held"
      else
        match t.policy with
        | Absent -> "absent"
        | Fail_fast | Hold_last | Retry _ -> "hold-last"
    in
    if t.quarantined.(bi) then Some ("quarantined:" ^ source ())
    else if contained t bi then Some ("contained:" ^ source ())
    else None

let quarantined_blocks t =
  if t.n_blocks <= 0 then []
  else
    List.filter
      (fun bi -> t.quarantined.(bi))
      (List.init t.n_blocks (fun i -> i))

let fault_to_json f =
  Telemetry.Json.Obj
    [ ("instant", Telemetry.Json.Int f.f_instant);
      ("block", Telemetry.Json.Int f.f_block);
      ("block_name", Telemetry.Json.Str f.f_block_name);
      ("class", Telemetry.Json.Str (class_name f.f_class));
      ("detail", Telemetry.Json.Str f.f_detail);
      ("action", Telemetry.Json.Str (action_name f.f_action)) ]

(* ------------------------- state snapshot ------------------------- *)

module Json = Telemetry.Json

let class_of_name = function
  | "trap" -> Some Trap
  | "budget-exceeded" -> Some Budget_exceeded
  | "heap-exhausted" -> Some Heap_exhausted
  | "step-limit" -> Some Step_limit
  | "retraction" -> Some Retraction
  | _ -> None

(* [action_name] is prose ("recovered after 3 failed attempts"); the
   checkpoint codec needs a tag that parses back, so actions serialize
   as ["held"|"absent"|"recovered:N"|"escalated"|"aborted"]. *)
let action_tag = function
  | Held -> "held"
  | Went_absent -> "absent"
  | Recovered n -> Printf.sprintf "recovered:%d" n
  | Escalated -> "escalated"
  | Aborted -> "aborted"

let action_of_tag s =
  match s with
  | "held" -> Some Held
  | "absent" -> Some Went_absent
  | "escalated" -> Some Escalated
  | "aborted" -> Some Aborted
  | _ ->
      let prefix = "recovered:" in
      let lp = String.length prefix in
      if String.length s > lp && String.sub s 0 lp = prefix then
        match int_of_string_opt (String.sub s lp (String.length s - lp)) with
        | Some n when n >= 0 -> Some (Recovered n)
        | _ -> None
      else None

let state_malformed what =
  invalid_arg ("Supervisor.restore_state: malformed " ^ what)

let int_member name j =
  match Json.member name j with
  | Some (Json.Int n) -> n
  | _ -> state_malformed name

let str_member name j =
  match Json.member name j with
  | Some (Json.Str s) -> s
  | _ -> state_malformed name

let fault_json f =
  Json.Obj
    [ ("instant", Json.Int f.f_instant);
      ("block", Json.Int f.f_block);
      ("block_name", Json.Str f.f_block_name);
      ("class", Json.Str (class_name f.f_class));
      ("detail", Json.Str f.f_detail);
      ("action", Json.Str (action_tag f.f_action)) ]

let fault_of_json j =
  { f_instant = int_member "instant" j;
    f_block = int_member "block" j;
    f_block_name = str_member "block_name" j;
    f_class =
      (match class_of_name (str_member "class" j) with
      | Some c -> c
      | None -> state_malformed "class");
    f_detail = str_member "detail" j;
    f_action =
      (match action_of_tag (str_member "action" j) with
      | Some a -> a
      | None -> state_malformed "action") }

(* Only the inter-instant registers travel: the per-instant ones
   (good-output and containment stamps, application counts, ...) expire
   when the next instant opens, so a checkpoint taken between instants
   never needs them. Codec reals ride as IEEE-754 bit patterns via
   [Codec]. Streaks and the quarantine set are sparse — only blocks off
   their default (streak 0, not quarantined) are listed, in block
   order: [consec] as [[block, streak]] pairs, [quarantined] as block
   indices. *)
let state_json t =
  if t.in_instant then
    invalid_arg "Supervisor.state_json: instant open";
  let vec a = Json.List (Array.to_list (Array.map Codec.value_json a)) in
  let consec = ref [] and quarantined = ref [] in
  for bi = Array.length t.consec - 1 downto 0 do
    if t.consec.(bi) <> 0 then
      consec := Json.List [ Json.Int bi; Json.Int t.consec.(bi) ] :: !consec;
    if t.quarantined.(bi) then quarantined := Json.Int bi :: !quarantined
  done;
  Json.Obj
    [ ("policy", Json.Str (policy_name t.policy));
      ("escalate_after", Json.Int t.escalate_after);
      ("instant", Json.Int t.instant);
      ( "committed",
        Json.List (Array.to_list (Array.map vec t.committed)) );
      ("consec", Json.List !consec);
      ("quarantined", Json.List !quarantined);
      ("total_faults", Json.Int t.total_faults);
      ("total_recovered", Json.Int t.total_recovered);
      ("dropped_log", Json.Int t.dropped_log);
      ("log", Json.List (List.map fault_json (faults t))) ]

let clear_stamps t =
  if t.n_blocks > 0 then begin
    Array.fill t.good_at 0 t.n_blocks never;
    Array.fill t.contained_at 0 t.n_blocks never;
    Array.fill t.apps_at 0 t.n_blocks never
  end

let restore_state t j =
  if t.n_blocks = -1 then
    invalid_arg "Supervisor.restore_state: not attached";
  (match Json.member "policy" j with
  | Some (Json.Str s) when policy_of_string s = Some t.policy -> ()
  | _ -> state_malformed "policy (mismatch with this supervisor)");
  if int_member "escalate_after" j <> t.escalate_after then
    state_malformed "escalate_after (mismatch with this supervisor)";
  let committed =
    match Json.member "committed" j with
    | Some (Json.List vs) ->
        List.map
          (function
            | Json.List v ->
                Array.of_list (List.map Codec.value_of_json v)
            | _ -> state_malformed "committed")
          vs
    | _ -> state_malformed "committed"
  in
  if List.length committed <> t.n_blocks then
    state_malformed "committed (block count)";
  List.iteri
    (fun bi v ->
      if Array.length v <> Array.length t.committed.(bi) then
        state_malformed "committed (arity)";
      Array.blit v 0 t.committed.(bi) 0 (Array.length v))
    committed;
  let sparse name set =
    match Json.member name j with
    | Some (Json.List l) -> List.iter set l
    | _ -> state_malformed name
  in
  let block name = function
    | Json.Int bi when bi >= 0 && bi < t.n_blocks -> bi
    | _ -> state_malformed (name ^ " (block index)")
  in
  Array.fill t.consec 0 t.n_blocks 0;
  sparse "consec" (function
    | Json.List [ bi; Json.Int n ] when n > 0 ->
        t.consec.(block "consec" bi) <- n
    | _ -> state_malformed "consec");
  Array.fill t.quarantined 0 t.n_blocks false;
  sparse "quarantined" (fun bi ->
      t.quarantined.(block "quarantined" bi) <- true);
  t.instant <- int_member "instant" j;
  t.total_faults <- int_member "total_faults" j;
  t.total_recovered <- int_member "total_recovered" j;
  t.dropped_log <- int_member "dropped_log" j;
  (match Json.member "log" j with
  | Some (Json.List l) ->
      let fs = List.map fault_of_json l in
      t.rev_log <- List.rev fs;
      t.log_len <- List.length fs
  | _ -> state_malformed "log");
  t.in_instant <- false;
  t.instant_faults <- 0;
  clear_stamps t

let faults_json t =
  Telemetry.Json.Obj
    [ ("policy", Telemetry.Json.Str (policy_name t.policy));
      ("escalate_after", Telemetry.Json.Int t.escalate_after);
      ("total_faults", Telemetry.Json.Int t.total_faults);
      ("recovered", Telemetry.Json.Int t.total_recovered);
      ("dropped", Telemetry.Json.Int t.dropped_log);
      ( "quarantined",
        Telemetry.Json.List
          (List.map (fun bi -> Telemetry.Json.Int bi) (quarantined_blocks t)) );
      ("faults", Telemetry.Json.List (List.map fault_to_json (faults t))) ]

let reset t =
  t.instant <- 0;
  t.in_instant <- false;
  t.rev_log <- [];
  t.log_len <- 0;
  t.dropped_log <- 0;
  t.total_faults <- 0;
  t.total_recovered <- 0;
  t.instant_faults <- 0;
  clear_stamps t;
  if t.n_blocks > 0 then begin
    Array.iter (fun c -> Array.fill c 0 (Array.length c) Domain.Bottom) t.committed;
    Array.fill t.consec 0 t.n_blocks 0;
    Array.fill t.quarantined 0 t.n_blocks false
  end
