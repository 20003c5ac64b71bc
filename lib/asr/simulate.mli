(** Reactive simulation: drive an ASR system instant by instant.

    ASR systems are reactive — the environment initiates every instant
    by presenting inputs; with no input the system sits idle (paper §3).
    The simulator owns the delay state between instants, compiles the
    evaluation {!Schedule} once at creation, and reuses its net buffers
    across instants instead of allocating per reaction: one without
    churn sinks, two swapped on churned instants otherwise (see
    [telemetry] / [monitor] below). *)

type t

type trace_entry = {
  instant : int;
  inputs : (string * Domain.t) list;
  outputs : (string * Domain.t) list;
  iterations : int;
}

val create :
  ?order:int array ->
  ?strategy:Fixpoint.strategy ->
  ?telemetry:Telemetry.Registry.t ->
  ?supervisor:Supervisor.t ->
  ?monitor:Telemetry.Monitor.t ->
  ?causal:Domain.t Telemetry.Causal.t ->
  Graph.t ->
  t
(** Compiles the graph and its schedule — and, under
    {!Fixpoint.Fused}, the {!Fuse} plan — once at creation. [strategy]
    defaults to {!Fixpoint.Worklist} — near-linear per instant on
    feed-forward systems — unless [order] is given, which selects
    chaotic iteration under that fixed block order (determinism tests
    shuffle it). Passing [order] together with a non-chaotic [strategy]
    raises [Invalid_argument].

    [telemetry]: each reaction emits one ["instant"] span (args:
    instant index, fixpoint iterations, block evaluations, net churn —
    nets whose fixed-point value differs from the previous instant's),
    maintains ["asr.instants"] / ["asr.block_evaluations"] and one
    ["asr.block.<name>.evals"] counter per block, and feeds the
    ["asr.fixpoint_iterations"] histogram. Disabled registries cost one
    check per reaction.

    [supervisor]: every block application of every instant is
    supervised (trap containment, budgets, quarantine; see
    {!Fixpoint.eval} for the fused kernel lane); the simulator drives
    the supervisor's instant lifecycle and, with telemetry on, adds a
    ["faults"] arg to each instant span. Without a supervisor the
    execution path is exactly the pre-supervisor one — no
    per-application overhead.

    [monitor]: each reaction is bracketed by
    {!Telemetry.Monitor.instant_begin} / [instant_end], recording one
    flight-recorder entry per instant (iterations, block evaluations,
    net churn, faults) and feeding the streaming sketches and windows.
    Churn always means "nets whose fixed point this instant differs
    from the previous instant's". With only a monitor attached, the
    O(nets) churn scan runs every [Telemetry.Monitor.churn_every]
    instants rather than every instant (records between samples carry
    churn 0, a sampled record carries that instant's exact churn) —
    always-on monitoring must not scale per-instant cost with net
    count; with [telemetry] also enabled churn is counted every
    instant. A churned instant settles into a spare net buffer and is
    compared, read-only, with the previous fixed point; the two
    buffers then swap, so no fixed point is ever copied.
    The record is pushed {e before} [Supervisor.end_instant], so a
    quarantine escalation's flight dump covers the instant that
    triggered it. With both [monitor] and [supervisor], the simulator
    installs a {!Supervisor.set_observer} hook translating fault /
    recovery / quarantine events into monitor block health. The monitor
    is independent of [telemetry]; with both, their cumulative
    ["asr.instants"] / ["asr.block_evaluations"] /
    ["asr.supervisor.faults"] views reconcile exactly because they are
    fed from the same per-instant values.

    [causal]: every reaction is recorded into the bounded causal event
    log as one traced instant (see {!Fixpoint.eval} and
    {!Telemetry.Causal}); the sink's net count must match the compiled
    graph. With both [monitor] and [causal], the monitor's [data_loss]
    object additionally reports the causal ring's overwrite and
    truncated-slice counters. Without a sink the execution path is
    unchanged. *)

val step : t -> (string * Domain.t) list -> (string * Domain.t) list
(** React to one instant's inputs; returns the outputs and advances the
    delay state. *)

val run : t -> (string * Domain.t) list list -> trace_entry list
(** Feed a stream of instants. *)

val strategy : t -> Fixpoint.strategy

val fuse_plan : t -> Fuse.t option
(** The {!Fuse} plan precompiled at creation — [Some] exactly when the
    strategy is {!Fixpoint.Fused}. *)

val schedule : t -> Schedule.t
(** The schedule precompiled at creation. *)

val instant_count : t -> int

val block_evaluations : t -> int
(** Total block applications across all instants since creation (or the
    last {!reset}) — the quantity the scheduling strategies minimize. *)

val delay_state : t -> Domain.t array

val supervisor : t -> Supervisor.t option

val monitor : t -> Telemetry.Monitor.t option

val causal : t -> Domain.t Telemetry.Causal.t option

val telemetry : t -> Telemetry.Registry.t option

val net_values : t -> Domain.t array
(** Copy of the most recent instant's fixed point, indexed by net (all
    ⊥ before the first reaction) — the per-instant observation the
    containment property quantifies over. *)

val reset : t -> unit
(** Back to initial delay values, instant 0, evaluation count 0; also
    resets the attached supervisor, if any. *)

(** {2 Checkpoint state}

    The complete simulator-side state between instants: delay
    registers, last fixed point (also the reference the next
    instant's churn is counted against), and the two counters. A fresh
    simulator with this state imported reacts bit-identically to the
    one exported from — attachment state
    (supervisor, monitor, causal log, registry) travels separately via
    the attachments' own checkpoint hooks (see {!Checkpoint}). *)

type state = {
  st_instant : int;
  st_evaluations : int;
  st_delays : Domain.t array;
  st_nets : Domain.t array;
}

val export_state : t -> state
(** Deep copy; valid however the simulator advances afterwards. *)

val import_state : t -> state -> unit
(** Restore into a simulator compiled from the same graph with the same
    strategy and attachment configuration. Raises [Invalid_argument] on
    a delay- or net-count mismatch. *)
