(** Shared engine plumbing: one parallel firing of a rule set (the
    immediate-consequence operator's "new facts" half), domains, and
    common bookkeeping. *)

open Relational

(** [program_dom p plans inst] is the [dom] argument the matcher needs to
    run [plans], the compiled rules of [p] against [inst]. It is [[]],
    computed without touching [inst], unless some plan reads the domain
    ({!Matcher.needs_dom}); then it is [adom(P, K)] — the constants of [p]
    merged with {!Instance.adom} [inst], sorted and duplicate-free —
    and, when [trace] is enabled, its computation is an ["adom"] span
    whose close field [values] is the domain's size. Every engine gets
    its domain here, once per evaluation: for the invention-free
    languages the domain never grows during the run. *)
val program_dom :
  ?trace:Observe.Trace.ctx ->
  Ast.program ->
  Matcher.prepared list ->
  Instance.t ->
  Value.t list

(** [db_dom p plans db] is {!program_dom} over [db]'s current contents
    ({!Matcher.Db.instance}), which it publishes only when some plan
    reads the domain: a loop that asks every step lends [db] nothing, so
    its writes copy nothing. *)
val db_dom :
  ?trace:Observe.Trace.ctx ->
  Ast.program ->
  Matcher.prepared list ->
  Matcher.Db.t ->
  Value.t list

(** [fact_selection p ~keep] is what a fact load for [p] needs to keep
    when only [keep] is read after the run ({!Instance.Select}): the
    facts some body atom of [p], positive or negated, can match. A fact
    no body atom matches never changes a stage of Γ, so no fact of
    [keep] changes. A fact whose arity is not its predicate's in [p] is
    kept too, so the check of the loaded facts ({!Ast.check_facts})
    rejects it as it does without a selection. [None] when some rule
    reads the active domain ({!Matcher.needs_dom}), to which every fact
    adds its values.
    @raise Ast.Check_error when [p] uses a predicate with two arities. *)
val fact_selection : Ast.program -> keep:string -> Instance.Select.t option

(** A prepared program: matcher plans per rule, in program order, each
    with the trace key of its [rule_firings.<label>] counter, so that
    no fixpoint builds a label again. *)
type prepared

val prepare : Ast.program -> prepared
val rules : prepared -> (Ast.rule * Matcher.prepared) list

(** [plans prepared] is the matcher plans alone, in program order. *)
val plans : prepared -> Matcher.prepared list

(** [rule_label i rule] is the stable counter label ["r<i>:<heads>"] used
    for per-rule firing counters ([rule_firings.<label>]); [i] is the
    rule's position in the program. *)
val rule_label : int -> Ast.rule -> string

(** [consequences_signed prepared inst ~dom] fires every rule with every
    applicable instantiation against [inst] and returns
    [(asserted, retracted)] instances: the facts of positive and negative
    head literals respectively, without [inst]'s. A ⊥ head raises [Invalid_argument] (the
    deterministic engines reject it at check time). *)
val consequences_signed :
  prepared -> Instance.t -> dom:Value.t list -> Instance.t * Instance.t

(** [seminaive_fixpoint prepared ~delta_preds ~dom inst] computes the
    inflationary fixpoint of the rule set from [inst] using delta
    iteration: stage 1 evaluates every rule in full; stage [k+1]
    re-evaluates only rules with a positive body occurrence of a
    [delta_preds] predicate, restricted to the facts newly derived at
    stage [k]. Negative literals are checked against the instance of the
    previous stage, which equals the current one within a stage —
    this is exact for (a) one stratum of a stratified program (negated
    predicates are fixed) and (b) inflationary Datalog¬ (facts never
    retract, so a body satisfied now but not before must use a delta
    fact). Returns the fixpoint and the number of stages (applications of
    the immediate-consequence operator, i.e. the paper's "stages").

    One {!Matcher.Db} is created for the whole run and fed each stage's
    delta via {!Matcher.Db.absorb_new} — indexes persist across rounds.
    Each stage's delta is itself a {!Matcher.Db} per worker, counting
    nothing, and the delta passes read it through its own memoized
    indexes.

    [neg_db]: check negative literals against this fixed database instead
    of the growing one — makes the fixpoint the Gelfond–Lifschitz
    operator A(J) used by the well-founded and stable-model engines.

    [trace]: when enabled, each application of Γ is wrapped in a ["round"]
    span whose close field [delta] is the number of facts it produced
    (round [0] is the initial full evaluation), and the counters
    [fixpoint.rounds], [fixpoint.delta_max], [fixpoint.delta_total],
    [fixpoint.tuples_derived], [fixpoint.tuples_deduped] and
    [rule_firings.<label>] are maintained.

    One loop runs every round, on one worker or, when the global
    {!Parallel.Pool} is available (jobs > 1 and not held by an
    enclosing fixpoint), on one worker per pool domain. Every derived
    fact has an owner, chosen by a hash of its first-column value, and
    freshness is decided the same way at every worker count: a fact in
    the database's membership set is a duplicate (those sets change
    only between rounds); any other fact joins its owner's round
    accumulator (a delta {!Matcher.Db}), directly or through a batched
    {!Parallel.Exchange} drained into it in a second phase of the same
    fan-out. Each worker derives from its owned slice of the previous
    round's delta: its previous accumulator. With more than
    one worker the counters [par.domains] (gauge), [par.tasks],
    [par.exchange_ms] (critical-path drain time), [par.exchanged_tuples]
    (cross-worker traffic) and [par.shard_skew] (gauge; [100] =
    balanced, [100 * domains] = one worker owns every fresh fact) are
    reported; with one, none is.

    The per-round delta set does not depend on the worker count, so the
    [round] spans, the [fixpoint.rounds], [fixpoint.delta_max] and
    [fixpoint.delta_total] counters, the returned instance and the stage
    count are identical at every [-j] (and the printed instance
    byte-identical). Worker-side counters are folded in at the end;
    derivation counts may differ from a one-worker run, because a sliced
    delta is matched in separate passes. When jobs > 1 but the pool is
    held by an enclosing fixpoint, the run uses one worker and counts
    [par.pool.fallbacks]. *)
val seminaive_fixpoint :
  ?trace:Observe.Trace.ctx ->
  ?neg_db:Matcher.Db.t ->
  prepared ->
  delta_preds:string list ->
  dom:Value.t list ->
  Instance.t ->
  Instance.t * int

(** [seminaive_fixpoint_db] is {!seminaive_fixpoint} against an existing
    {!Matcher.Db} — the db keeps its indexes and membership sets, and
    the fixpoint's derived facts are absorbed into it, so a long-lived
    caller (a {!Magic} query session, the resident server) pays index
    construction once and each later fixpoint re-derives nothing it
    already holds. Returns the number of stages; the result is read
    from the db, which publishes nothing until asked
    ({!Matcher.Db.relation}, {!Matcher.Db.instance}). *)
val seminaive_fixpoint_db :
  ?trace:Observe.Trace.ctx ->
  ?neg_db:Matcher.Db.t ->
  prepared ->
  delta_preds:string list ->
  dom:Value.t list ->
  Matcher.Db.t ->
  int

(** {1 Incremental view maintenance}

    The write path of the resident server ({!module:Server.Engine}): a
    long-lived {!Matcher.Db} holds the materialized fixpoint and is
    updated in place, never recomputed. *)

(** [seminaive_increment_db prepared ~delta_preds ~dom db delta] resumes
    the semi-naive loop on an already-materialized [db] with the facts of
    the [Db] [delta] (a write batch, see {!Matcher.Db}) as the round-0
    delta: they are absorbed and the delta-restricted rules iterate to
    the new fixpoint. No fact of [delta] may be in [db] — the caller
    checks with {!Matcher.Db.mem}. [delta] becomes the loop's first
    delta slice: the caller must not use it afterwards. Cost is
    proportional to the consequences of the delta, not to the database.
    It runs {!seminaive_fixpoint}'s loop on one worker. Returns the
    number of propagation stages ([0] for an empty [delta]). *)
val seminaive_increment_db :
  ?trace:Observe.Trace.ctx ->
  ?neg_db:Matcher.Db.t ->
  prepared ->
  delta_preds:string list ->
  dom:Value.t list ->
  Matcher.Db.t ->
  Matcher.Db.t ->
  int

(** Compiled artifacts for {!dred}: delta tables over every positive
    body predicate plus one guard plan per rule ([P(t̄) :- dred$P(t̄),
    body] — the synthetic atom reads the cone's store for [P] through
    the delta mechanism, so no [dred$] relation ever exists). Build once
    per program, reuse across retraction batches. Only
    single-positive-head rules (pure Datalog) participate. *)
type dred_prepared

val prepare_dred : prepared -> dred_prepared

type dred_stats = {
  overdeleted : int;  (** facts removed in the over-deletion phase *)
  rederived : int;  (** of those, facts restored by re-derivation *)
  cone_rounds : int;  (** frontier expansions of the deletion cone *)
}

(** [dred dprep ~edb ~dom db deletions] retracts the facts of the [Db]
    [deletions] (a write batch, see {!Matcher.Db}) from the materialized
    fixpoint [db] by delete-and-rederive: (1) over-delete the derived
    cone of the retracted facts (computed against the intact database,
    so derivations using several deleted facts are found); (2) remove
    it; (3) seed re-derivation with cone facts still present in the base
    facts [edb] and cone facts one guard plan rederives from the
    surviving database; (4) propagate the seed with the semi-naive
    increment loop. The cone, each of its frontiers and the seed are
    delta [Db]s, which the delta passes read through their own memoized
    indexes. The result equals recomputing the fixpoint from scratch on
    the post-retraction EDB. [edb] holds the base (asserted) facts
    {e after} the retraction. Facts absent from [db] are ignored.
    Counters (when tracing): [dred.batches], [dred.overdeleted],
    [dred.rederived], [dred.cone_rounds] (gauge).
    Each phase runs in a span named [dred] whose kind names the phase:
    [cone], [delete], [seed] and [propagate] (the last holds the
    propagation's [round] spans), so each kind's [span.<kind>] histogram
    splits retraction time by phase. *)
val dred :
  ?trace:Observe.Trace.ctx ->
  dred_prepared ->
  edb:Matcher.Db.t ->
  dom:Value.t list ->
  Matcher.Db.t ->
  Matcher.Db.t ->
  dred_stats

(** [naive_fixpoint prepared ~dom inst] is the same fixpoint computed by
    full re-evaluation at every stage — the reference strategy. [trace]
    records the same ["round"] spans and [fixpoint.*] counters as
    {!seminaive_fixpoint}. *)
val naive_fixpoint :
  ?trace:Observe.Trace.ctx ->
  prepared ->
  dom:Value.t list ->
  Instance.t ->
  Instance.t * int

(** [stage_trace prepared ~dom inst] returns the full stage sequence
    [K ⊆ Γ(K) ⊆ Γ²(K) ⊆ ...] up to and including the fixpoint — stage
    numbers are meaningful to programs like Example 4.1's [closer]. *)
val stage_trace :
  prepared -> dom:Value.t list -> Instance.t -> Instance.t list

(** Result bookkeeping common to all engines. *)
type stats = {
  stages : int;  (** number of applications of the consequence operator *)
  facts_inferred : int;  (** facts in the final idb *)
}
