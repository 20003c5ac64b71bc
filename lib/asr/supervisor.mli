(** Reaction supervisor: runtime fault containment for ASR simulation.

    The refinement rules guarantee bounded reactions *statically*; the
    supervisor enforces graceful behavior when a block misbehaves
    anyway — an unrefined program, a modeling error, or an injected
    fault ({!Inject}). It wraps every block application of a fixpoint
    so that a raising block is *contained* instead of tearing down the
    whole reactive system: the block's output nets hold their previous
    value or go absent (per {!policy}) while the fixpoint continues for
    every other block, and a watchdog escalates a block to permanent
    quarantine after [escalate_after] consecutive faulty instants.

    {b Containment invariant.} A contained block's substitution is
    always lub-consistent with what the block already wrote this
    instant (its good outputs if any, otherwise the previous instant's
    committed outputs, otherwise ⊥), and is constant for the rest of
    the instant — so the supervised fixpoint still iterates a monotone
    function and converges. Consequently every net outside
    {!Graph.affected_nets} of the faulted block takes exactly the same
    per-instant value as in the fault-free run; the test suite and the
    [faults] bench check this bit-for-bit.

    {b Determinism.} The supervisor adds no randomness: given the same
    graph, inputs, policy and (injected) faults, the fault log and all
    net traces are identical run to run.

    Lifecycle: {!attach} once per compiled graph (done implicitly by
    {!Fixpoint.eval}), {!begin_instant} / {!end_instant} around each
    instant (done by {!Simulate.react}; [Fixpoint.eval] brackets itself
    when used standalone). *)

type policy =
  | Fail_fast  (** re-raise as {!Fatal}: stop the simulation *)
  | Hold_last  (** output nets hold the previous instant's values *)
  | Absent  (** output nets go ⊥ for the instant *)
  | Retry of int
      (** re-run the block up to [n] more times within the instant;
          contain like [Hold_last] if every attempt faults *)

type fault_class =
  | Trap  (** bounds violation, division by zero, … *)
  | Budget_exceeded  (** reaction cycle budget blown *)
  | Heap_exhausted  (** allocation failure / bounded-memory violation *)
  | Step_limit  (** more applications in one instant than [step_budget] *)
  | Retraction  (** non-monotone: the block changed a defined output *)

type action =
  | Held
  | Went_absent
  | Recovered of int  (** a [Retry] succeeded after [n] failed attempts *)
  | Escalated
  | Aborted

type fault = {
  f_instant : int;
  f_block : int;  (** index in [compiled.c_blocks] *)
  f_block_name : string;
  f_class : fault_class;
  f_detail : string;  (** human-readable provenance (exception message) *)
  f_action : action;
}

exception Fatal of fault
(** Raised under [Fail_fast] (after logging the fault). *)

type event =
  | Ev_fault of fault  (** a fault was contained (any action) *)
  | Ev_recovered of fault  (** a [Retry] absorbed a transient fault *)
  | Ev_quarantined of fault
      (** the watchdog escalated the block to permanent quarantine *)

type t

val create :
  ?policy:policy ->
  ?escalate_after:int ->
  ?max_log:int ->
  ?step_budget:int ->
  ?classify:(exn -> (fault_class * string) option) ->
  ?telemetry:Telemetry.Registry.t ->
  unit ->
  t
(** Defaults: [policy = Hold_last], [escalate_after = 3] consecutive
    faulty instants before quarantine, [max_log = 1000] retained fault
    records (later ones are counted in {!dropped_faults}), no
    [step_budget] (no per-instant application limit).

    [classify] maps an exception raised by a block to a fault class and
    detail; it is consulted before the built-in classifier (which
    recognizes {!Inject.Injected}, [Division_by_zero],
    [Invalid_argument], [Failure], [Stack_overflow], [Out_of_memory]).
    An exception neither classifier recognizes propagates unchanged —
    the supervisor contains faults, it does not swallow harness bugs.
    Engine-level classification (cycle budgets, heap limits) is
    provided by [Elaborate.fault_classifier].

    [telemetry] feeds counters ["asr.supervisor.faults"],
    ["asr.supervisor.fault.<class>"], ["asr.supervisor.recovered"] and
    ["asr.supervisor.quarantined"]. *)

val set_observer : t -> (event -> unit) -> unit
(** Install a synchronous event observer, replacing any previous one.
    Fired at every containment ([Ev_fault], including the ones beyond
    the [max_log] retention cap), retry recovery ([Ev_recovered]) and
    watchdog escalation ([Ev_quarantined], from {!end_instant}). Under
    [Fail_fast] the observer sees the fault before {!Fatal} is raised.
    {!Simulate} uses this to feed {!Telemetry.Monitor} block health;
    {!reset} leaves the observer installed. *)

val attach : t -> Graph.compiled -> unit
(** Size the per-block state for this graph. Idempotent for graphs with
    the same block count; [Invalid_argument] if the supervisor is
    already attached to a graph with a different one. *)

val begin_instant : t -> unit

val bind_nets : t -> Domain.t array -> unit
(** Bind the net array the instant's fixpoint settles in (done by
    {!Fixpoint.eval} on every evaluation). A block's good outputs are
    its output nets there, which {!end_instant} commits and a
    mid-instant substitution reads. *)

val end_instant : t -> unit
(** Commit, in one pass over the bound nets, the outputs of every block
    that produced good outputs this instant (blocks contained before
    producing any keep their last good values), advance the watchdog
    (consecutive-fault counters, quarantine escalation), move to the
    next instant. *)

val in_instant : t -> bool

val guard : t -> bi:int -> run:(unit -> Domain.t array) -> Domain.t array
(** One supervised block application: runs [run ()] unless the block is
    quarantined or already contained this instant (in which case the
    substitution is returned directly), classifies and contains any
    recognized fault per the policy. Called by [Fixpoint.apply_block]. *)

val run_direct :
  t -> bi:int -> (Domain.t array -> unit) -> Domain.t array -> bool
(** [run_direct t ~bi step nets] runs block [bi]'s pure kernel slot
    closure [step] on [nets] outside {!guard}: no closure, staging or
    output array per application. [true] when the step returned (the
    block's good outputs are in [nets]); [false] when the block is
    quarantined or contained this instant, or when [step] raised — a
    kernel step computes before it stores, so it wrote nothing, and the
    caller replays the block through {!guard}, which retries, contains
    and logs exactly as a guarded first attempt would (the replay of a
    pure kernel is unobservable). *)

val retract : t -> bi:int -> detail:string -> bool
(** Containment for a lub conflict detected *outside* the block
    function (the block returned, but its outputs contradict the nets).
    The block is frozen at its output nets' current values for the rest
    of the instant. [false] when the block was already contained this
    instant — the caller should then fall back to
    [Fixpoint.Nonmonotonic]. *)

(** {2 Inspection} *)

val policy : t -> policy

val escalation_threshold : t -> int
(** The [escalate_after] this supervisor was created with. *)

val faults : t -> fault list
(** Chronological fault log (capped at [max_log]). *)

val fault_count : t -> int
(** Contained (non-recovered) faults, including those beyond the cap. *)

val recovered_count : t -> int

val dropped_faults : t -> int

val instant_fault_count : t -> int
(** Faults contained in the current (or just-ended) instant. *)

val is_quarantined : t -> int -> bool

val containment : t -> int -> string option
(** When block [bi]'s outputs this instant come from a containment
    substitution rather than the block's own function, the provenance
    tag: ["contained:"] or ["quarantined:"] followed by the value
    source — ["held"] (good outputs produced earlier this instant),
    ["hold-last"] (last committed outputs) or ["absent"] (⊥). [None]
    when the block is running normally. Feeds the causal trace so
    held/absent values carry their policy provenance. *)

val quarantined_blocks : t -> int list

val fault_to_json : fault -> Telemetry.Json.t

val faults_json : t -> Telemetry.Json.t
(** The full fault log plus summary counters, for [--fault-log]. *)

val reset : t -> unit
(** Clear all per-block state, counters and the log (for re-running a
    trace on the same graph; pairs with {!Simulate.reset}). *)

(** {2 Checkpoint state}

    The inter-instant registers — instant index, committed outputs,
    fault streaks, quarantine flags, counters, and the capped fault
    log — as a JSON blob. Per-instant scratch (good-output and
    containment stamps, application counts) is excluded: it expires when
    the next instant opens, so a checkpoint taken between instants never
    needs it. Reals serialize as IEEE-754 bit patterns, and fault actions as
    parseable tags (["recovered:3"], not prose), so a restored
    supervisor continues — and logs — bit-identically. Streaks and
    quarantine flags are sparse: [consec] lists [[block, streak]] pairs
    for nonzero streaks and [quarantined] lists quarantined block
    indices, both in block order. *)

val state_json : t -> Telemetry.Json.t
(** Raises [Invalid_argument] when called mid-instant. *)

val restore_state : t -> Telemetry.Json.t -> unit
(** Restore into an {!attach}ed supervisor created with the same policy
    and escalation threshold (both are checked; mismatch raises
    [Invalid_argument], as does malformed input — including a block
    index outside the attached graph or a streak below 1). *)

(** {2 Names} *)

val policy_name : policy -> string

val policy_of_string : string -> policy option
(** Accepts ["fail"]/["fail-fast"], ["hold"]/["hold-last"], ["absent"],
    ["retry:<n>"]. *)

val class_name : fault_class -> string

val action_name : action -> string

val fault_to_string : fault -> string

val default_classify : exn -> (fault_class * string) option
