(** Reaction fusion: ahead-of-time compilation of a scheduled net into a
    flat sequence of slot operations (ROADMAP "reaction fusion", after
    Gaffé/Ressouche/Roy's modular compilation of synchronous programs:
    compile the net to a linked equation system instead of interpreting
    it block by block).

    The plan is derived from {!Schedule}'s Tarjan condensation. Over the
    acyclic region every net is a direct slot in the instant's value
    array: a block whose {!Block.kernel} names a standard cell becomes a
    closure that reads its input slots and writes its output slots with
    no staging, no per-application array allocation and no dispatch
    through {!Block.apply}; opaque blocks keep their function but feed
    it from a preallocated per-block buffer and store outputs straight
    into their slots (sound because each net has exactly one producer
    and the topological order runs it after all its inputs settled —
    the same single-application semantics {!Fixpoint.Scheduled} gives
    acyclic blocks). Cyclic SCCs fall back to bounded lub-iteration
    inside the fused reaction.

    Chain collapsing (the fast lane, [f_fast]): a strict data kernel
    ([Map1]/[Map2]/[IMap1]/[IMap2]/[Identity]) whose single output net
    has exactly one consumer — itself a strict data kernel in the
    acyclic region — is inlined into that consumer's closure. The
    interior value flows through an OCaml local instead of the slot
    array: no [Def] boxing, no slot store, no write barrier, no
    per-block dispatch. A whole FIR adder chain becomes one closure,
    and a chain of [IMap] kernels runs over raw machine ints, falling
    back to the exact data-level chain the moment a non-[Int] value
    appears.

    Net aliasing: a fork (or a slot-fed identity) does not copy — each
    output port aliases the source slot, consumers read through the
    alias, and the fork dissolves. A port still gets a real store (at
    the fork's schedule position) only when some consumer reads the
    slot itself (a mux, an opaque block, an SCC member); a port only
    the environment reads (an output port, a delay feed) is served by
    one copyback at the end of the pass ([f_copy_dst]/[f_copy_src]).

    Per-instant reset: instead of re-blitting the whole template, the
    fast lane restores only [f_reset] — the slots a pass may leave
    stale: conditionally-written outputs (strict heads, muxes), SCC
    nets, folded constants and input ports. Everything else is either
    written unconditionally each pass or aliased away.

    Semantic footnotes, all confined to the unsupervised, uncounted
    path that uses the fast lane: (1) collapsed interior and aliased
    nets are unspecified in the returned net array (⊥ on a fresh
    buffer) — output ports, delay feeds and slot-consumed nets are
    always materialized, so the environment sees no difference; (2) a
    chain is ⊥-strict, so a kernel inside a chain whose consumer is
    already ⊥ from an earlier argument is not applied at all (a trap it
    would have raised does not fire). Runs that observe per-block
    behaviour — a {!Supervisor}, per-block eval counters, or both — run
    the block-at-a-time [f_ops] kernel lane instead: every net is
    materialized, every application (and its faults) is visible, the
    instant starts from a full template blit, and each kernel [Step]
    still runs its slot closure — no output array, staging or closure
    per application. Under a supervisor a raising step, which wrote
    nothing, is replayed once through {!Supervisor.guard}; opaque
    blocks, SCC members and quarantined or contained blocks always go
    through the guard. Only causal recording sends every acyclic block
    through the generic direct-store application.

    Constant folding: a pure-kernel block whose transitive inputs are
    all compile-time constants is evaluated once at fuse time; its
    output slots move into the instant template (the array the fixpoint
    starts from instead of all-⊥) and the block drops out of the plan
    entirely. Only kernel cells fold — opaque blocks may close over
    state (an elaborated MJ instance, a fault injector), so they are
    never trial-evaluated. Intervals feeding {!Analysis}'s inter-block
    bounds-check elision are the degenerate [v,v] intervals of exactly
    these folded nets.

    Evaluation of a plan lives in {!Fixpoint.eval} (strategy
    [Fused]); with a supervisor present, containment on the fused path
    uses the same guard and the same constant-per-instant substitution
    as the interpreted strategies.
    Folded blocks cannot fault (their one evaluation already succeeded
    and they are constant), so dropping them is containment-neutral. *)

type op =
  | Step of int * (Domain.t array -> unit)
      (** kernel-specialized application of block [bi]: the closure
          reads and writes net slots directly *)
  | Generic of int
      (** opaque acyclic block [bi]: apply its function via a reused
          input buffer, store outputs directly into its slots *)
  | Iterate of int array * int
      (** cyclic SCC fallback: members in schedule order, lub-iterated
          up to the bound (local net count + 2) *)

type fast =
  | Frun of (Domain.t array -> unit)
      (** one fused acyclic operation — a collapsed chain head, a
          non-collapsible kernel step, or an opaque direct-store
          application *)
  | Fiter of int array * int  (** cyclic SCC fallback, as in [Iterate] *)

type t = {
  f_ops : op array;
      (** block-at-a-time ops in schedule order: the kernel lane of
          counted, supervised and traced runs *)
  f_fast : fast array;
      (** the fast lane: chains collapsed, in schedule order *)
  f_fast_evals : int;
      (** block applications one pass of the acyclic part of [f_fast]
          represents (inlined chain kernels included) — added to the
          evaluation tally in place of per-op counting *)
  f_template : Domain.t array;
      (** per-instant initial net values: ⊥ everywhere except folded
          constant nets *)
  f_reset : int array;
      (** slots the fast lane restores from the template before binding
          inputs, in place of a full blit; the counting and supervised
          paths blit the whole template *)
  f_copy_src : int array;
  f_copy_dst : int array;
      (** parallel arrays: after the fast pass settles, copy
          [nets.(f_copy_src.(k))] into [nets.(f_copy_dst.(k))] —
          environment-read fork/identity ports served by their alias *)
  f_n_nets : int;
  f_n_blocks : int;
  f_folded : bool array;  (** per block: folded away at compile time *)
  f_n_fused : int;  (** blocks compiled to kernel-specialized steps *)
  f_n_folded : int;
  f_n_inlined : int;
      (** of the fused blocks, how many vanished from the fast lane —
          collapsed into a consumer's chain, or a fork/identity fully
          dissolved into aliases *)
  f_n_cyclic : int;  (** blocks left inside SCC fallbacks *)
}

exception Undefined
(** Internal strictness signal of collapsed chains; never escapes
    {!Fixpoint.eval}. *)

val compile : ?schedule:Schedule.t -> Graph.compiled -> t
(** Build the fused plan. [schedule] reuses a precompiled schedule
    (computed otherwise). *)

val constant_nets : t -> (int * Domain.t) list
(** Nets whose per-instant value was folded to a compile-time constant,
    with that value — the cross-block facts available to downstream
    analyses. *)

val describe : t -> string
(** One-line plan summary (fused/inlined/generic/folded/cyclic counts). *)
