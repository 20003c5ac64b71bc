(** Fixed-point semantics of a single instant (paper §3, after Edwards).

    All nets start at ⊥; environment inputs and delay outputs are then
    fixed, and blocks are evaluated until no net changes. Monotone
    blocks over the finite-height domain guarantee convergence to the
    least fixed point, independent of evaluation order — that
    order-independence is ASR determinism, and tests randomize [order]
    to check it.

    Four evaluation strategies compute the same least fixed point:

    - {!Chaotic} — re-evaluate every block on every sweep until a sweep
      changes nothing. O(blocks × nets) applications; the reference
      oracle the others are differentially tested against.
    - {!Scheduled} — follow a precompiled {!Schedule}: acyclic blocks
      run exactly once in topological order; only delay-free cyclic
      components iterate (bounded by their net count).
    - {!Worklist} — seed every block once, then re-evaluate a block
      only when one of its input nets actually changed (driven by the
      [c_consumers] reverse index).
    - {!Fused} — execute a {!Fuse} plan compiled ahead of time from the
      schedule: acyclic blocks become direct slot operations (standard
      cells as allocation-free closures, constants folded into the
      instant template), cyclic SCCs fall back to bounded lub-iteration.
      Same single-application acyclic semantics as [Scheduled].

    Caveat on non-monotone blocks: chaotic iteration and the worklist
    re-apply blocks whose inputs rose and therefore observe retraction
    ({!Nonmonotonic}). [Scheduled] and [Fused] apply an acyclic block
    exactly once, with final inputs, so a non-monotone block in acyclic
    position silently yields its value at those inputs; inside cyclic
    components every strategy detects retraction. *)

type result = {
  nets : Domain.t array;        (** value of every net at the fixed point *)
  iterations : int;             (** chaotic: full sweeps until convergence;
                                    scheduled/fused: deepest
                                    cyclic-component round count (1 if
                                    feed-forward); worklist: most
                                    evaluations of any single block *)
  block_evaluations : int;      (** total block applications (fused:
                                    folded blocks apply zero times) *)
}

type strategy = Chaotic | Scheduled | Worklist | Fused

val strategy_name : strategy -> string

val strategy_of_string : string -> strategy option
(** Inverse of {!strategy_name} (CLI parsing). *)

exception Nonmonotonic of string
(** A block changed or retracted a defined output during iteration, or
    iteration exceeded the theoretical bound — the block function is not
    monotone. *)

type buffers = {
  b_in : Domain.t array array;
      (** per-block input vector, filled in place before each
          application *)
  b_out : Domain.t array array;
      (** per-block output snapshot scratch (worklist) *)
}

val make_buffers : Graph.compiled -> buffers
(** Preallocate per-block scratch. {!eval} allocates a fresh set per
    call unless one is supplied; {!Simulate} and {!Compose} allocate
    once and reuse across instants. *)

val eval :
  Graph.compiled ->
  inputs:(string * Domain.t) list ->
  delay_values:Domain.t array ->
  ?order:int array ->
  ?strategy:strategy ->
  ?schedule:Schedule.t ->
  ?fuse:Fuse.t ->
  ?buffers:buffers ->
  ?nets:Domain.t array ->
  ?eval_counts:int array ->
  ?supervisor:Supervisor.t ->
  ?causal:Domain.t Telemetry.Causal.t ->
  unit ->
  result
(** [delay_values.(i)] is the output of the i-th delay this instant.
    Unknown input names raise [Invalid_argument]; inputs not mentioned
    are ⊥ (absent).

    [strategy] defaults to [Chaotic]. [order] permutes chaotic block
    evaluation (default: declaration order) and is rejected under the
    other strategies. [schedule] supplies a precompiled schedule
    ([Scheduled] computes one on the fly otherwise; [Worklist] uses it
    only as its seed order, defaulting to declaration order; [Fused]
    uses it when compiling a plan on the fly).

    [fuse] supplies a precompiled {!Fuse} plan (only meaningful with
    [Fused], which otherwise compiles one per call — precompile for
    per-instant use). A plan whose net/block counts disagree with the
    graph raises [Invalid_argument].

    [buffers] supplies preallocated per-block scratch (see
    {!make_buffers}); a fresh set is allocated per call otherwise.

    [nets] optionally supplies a preallocated buffer of length [n_nets]
    that is cleared and reused — the returned {!result} aliases it, so
    callers reusing a buffer across instants must consume the result
    before the next call.

    [eval_counts], when non-empty, must have length [n_blocks]; entry
    [bi] is incremented on each application of block [bi] (telemetry).
    The default empty array disables counting. Folded blocks are never
    applied, so their entries stay 0 under [Fused].

    [supervisor] guards every block application (trap containment,
    budgets, quarantine — see {!Supervisor}) and additionally contains
    retractions that would otherwise raise {!Nonmonotonic}, by freezing
    the offending block at its nets' current values. Under [Fused],
    kernel steps still run their slot closures unguarded (kernels are
    pure); a step that raises wrote nothing and is replayed once under
    the guard, so retries, containment, the fault log and [Fatal] come
    out exactly as if it had been guarded. Opaque blocks, SCC members
    and quarantined or contained blocks go through the guard; folded
    constants cannot fault and stay folded. The supervisor is bound to
    [nets] ({!Supervisor.bind_nets}) and commits outputs from it. When
    no instant is already open (i.e. the caller is not {!Simulate}),
    this call is bracketed as one supervised instant. Under the
    [Fail_fast] policy a contained fault re-raises as
    [Supervisor.Fatal].

    [causal], when supplied, records this evaluation into a bounded
    causal event log (see {!Telemetry.Causal}): instant-start bindings
    (inputs, delay crossings, fused folded constants), then one event
    per block evaluation that established a net value, with the reads
    resolved to their producers' uids. If no instant is already open on
    the sink, the call is bracketed as one traced instant. Under
    [Fused] the fast lane is bypassed — chains collapse nets the log
    must see — so tracing runs the block-at-a-time op list, as
    [eval_counts] and [supervisor] do, with every acyclic block taking
    the generic direct-store application so its writes are recorded;
    evaluation counts are unchanged. With a supervisor, substituted outputs are tagged with
    their containment provenance ({!Supervisor.containment}). *)

val outputs : Graph.compiled -> result -> (string * Domain.t) list

val delay_next : Graph.compiled -> result -> Domain.t array
(** Values presented to each delay's input this instant — the delays'
    outputs for the next instant. *)

val delay_next_into : Graph.compiled -> result -> Domain.t array -> unit
(** In-place {!delay_next}: overwrite [dst] (one slot per delay) with
    the values presented to each delay's input this instant. The
    allocation-free form for per-instant reaction loops. *)
