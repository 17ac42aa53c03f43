(** Rule instantiation: enumerating the valuations that satisfy a rule body
    against a database.

    This is the shared workhorse of every engine in the family. At
    {!prepare} time each rule is compiled to a slot-based plan: variables
    are mapped to integer slots, atoms are ordered greedily most-bound
    first, and for every step the set of already-bound argument positions
    is known statically. The inner join loop then unifies tuples into a
    mutable environment array — no association lists on the hot path.

    An instantiation of a rule w.r.t. K (paper, §4.1) maps each variable
    into [adom(P, K)]; because our rules are range-restricted (safety
    checks in {!Ast}), enumerating joins over the stored relations produces
    exactly those valuations without materializing the domain. Only the
    variables no positive atom binds range over [adom(P, K)]; {!needs_dom}
    tells whether a plan has any, and {!Eval_util.program_dom} computes
    the domain only then. *)

open Relational

(** The engines' mutable store. Per predicate a [Db] holds one
    membership set (a {!Tuple.Set}, which keeps its facts in insertion
    order too) and the join indexes ({!Relation.Index}) memoized per
    constrained positions, all maintained incrementally: create one [Db]
    per evaluation (not per stage) and feed it new facts with
    {!Db.insert} or {!Db.absorb_new} — every cached index
    is updated in place instead of being rebuilt. A probe that binds
    every argument position is a membership test: it reads the
    predicate's membership set ({!Db.memset}) and never builds an index.
    A probe that binds none walks the set in its order and never builds
    an index either: there is no index on no columns.

    A predicate's store starts from the wrapped instance's relation: it
    adopts that relation's set ({!Relation.set}) without copying it.
    {!Db.relation} and {!Db.instance} publish by lending the set to a
    relation value ({!Relation.of_set}); the next write to a lent set
    copies it first, so a published relation never changes. A store for
    a predicate the instance lacks starts from a fresh small set of its
    own, which no write has to copy.

    A [Db] also holds every set of facts an engine feeds back as a
    delta: a semi-naive round's new facts (each worker's round
    accumulator, which becomes its next delta slice), a DRed
    over-deletion cone and its frontiers, and a write batch of the
    resident server. Such a Db wraps {!Instance.empty} and reports to
    {!Observe.Trace.null}, so it moves no counter and opens no span. A
    delta pass ({!iter_firings}'s [delta]) reads one of its stores
    ({!Db.memset}) the way a plan reads the database: the membership
    set, a walk of the set, or an index memoized on the store. An index
    over a delta is therefore a [Db] index, built at most once per
    store and positions, whichever rules read it. *)
module Db : sig
  type t

  (** [of_instance ?trace inst] wraps [inst]. The [trace] context (default
      {!Observe.Trace.null}) receives the database's hot-path counters:
      [db.index_builds] / [db.index_memo_hits] (secondary-index
      construction vs. memo reuse), [db.inserts] / [db.insert_dups], and
      the matcher counters of every {!run} against this database. Each
      index build runs in a span of kind [index], named [pred[cols]]
      (e.g. [G[0]]), opened with the fields [pred], [cols] and [rows]
      (the tuples indexed). Each publish of a predicate written since
      its last publish (see {!instance}) runs in a span of kind
      [materialize], named after the predicate, opened with the fields
      [pred] and [rows] (the facts of the published relation). *)
  val of_instance : ?trace:Observe.Trace.ctx -> Instance.t -> t

  (** The trace context the database reports to. *)
  val trace : t -> Observe.Trace.ctx

  (** [with_trace db ctx] is a {e view} of [db] reporting to [ctx]: it
      shares every store (membership sets and indexes) with [db] but
      counts into its own context. The semi-naive loop hands one view to
      each of its workers when it runs on more than one, so counters
      never contend. A view is read-only by convention: callers must
      {!prewarm} every structure their plans touch before sharing views
      across domains, must not mutate through a view, and must not use
      it through {!instance}/{!relation}. *)
  val with_trace : t -> Observe.Trace.ctx -> t

  (** [sharing db shared base] is a query-scoped database over [base]
      that reads every predicate of [shared] from [db] itself: [db]'s
      store for it (membership set and memoized indexes) is
      aliased, not copied. An index the query builds on a shared
      predicate therefore stays in [db], and [db]'s later writes
      maintain it. Every other predicate starts from [base] and lives
      only in the new value, which reports to [db]'s trace context. The
      value is valid until [db] is next written, and a shared predicate
      must never be written through it. *)
  val sharing : t -> string list -> Instance.t -> t

  (** [instance db] is the current contents as an instance (a snapshot;
      later writes to [db] do not affect it). Each predicate's relation
      is lent the predicate's set, so publishing copies
      nothing; a predicate not written since its last publish keeps its
      relation value (and that value's memoized indexes and sorted
      view). *)
  val instance : t -> Instance.t

  (** [relation db p] is the relation of predicate [p], published as in
      {!instance}. *)
  val relation : t -> string -> Relation.t

  (** [arity db p] reads [p]'s set without publishing it ([None] when
      [p] has no facts); [total db] is the number of facts across
      predicates. Neither lends a set, so the next write copies
      nothing. *)
  val arity : t -> string -> int option
  val total : t -> int

  (** [lookup db p bindings] returns the tuples of [p] agreeing with
      [bindings], a list of (position, value) constraints. Builds (and
      caches) a hash index on the constrained positions — unless they
      are exactly the positions [0 .. arity - 1] of [p]: a ground lookup
      reads the membership set ({!memset}) and builds no index; nor does
      a lookup with no constraint, which lists the set in its order. The
      list is built once from the index bucket
      ({!Relation.Index.to_list}, newest first); the compiled plans read
      buckets in place and never build it. *)
  val lookup : t -> string -> (int * Value.t) list -> Tuple.t list

  (** [mem db p tup] tests a ground fact. *)
  val mem : t -> string -> Tuple.t -> bool

  (** [iter f db] calls [f p tup] on every fact, predicate by predicate
      in name order, each predicate's facts in its set's order. *)
  val iter : (string -> Tuple.t -> unit) -> t -> unit

  (** A handle on one predicate's membership set, probed by interned id
      vector: a short linear scan of one array however large the
      relation grows — fixpoint engines use this for their freshness
      checks. It stays valid across every write to the predicate,
      including the copy of a lent set. *)
  type memset

  (** [memset db p] is the membership set of predicate [p]. *)
  val memset : t -> string -> memset

  (** [memset_opt db p] is [Some (memset db p)] when [p] has a fact,
      else [None]; asking about a predicate without facts creates no
      store. *)
  val memset_opt : t -> string -> memset option

  (** [memset_mem m ids] tests the fact with argument ids [ids]. *)
  val memset_mem : memset -> int array -> bool

  (** [memset_mem_hashed m ids h] is [memset_mem m ids] when
      [h = Tuple.hash_ids ids], which it does not compute again. *)
  val memset_mem_hashed : memset -> int array -> int -> bool

  (** [memset_add m tup] is {!insert} through the handle: it finds no
      store and counts nothing — the semi-naive loop's path into its
      round accumulators, which report to {!Observe.Trace.null}
      anyway. *)
  val memset_add : memset -> Tuple.t -> bool

  (** [insert db p tup] adds a fact, updating every memoized index of
      [p]. Returns [true] iff the fact was new. A fact already present
      costs one probe of the membership set and allocates nothing.
      @raise Invalid_argument when [tup]'s arity differs from [p]'s
      facts'. *)
  val insert : t -> string -> Tuple.t -> bool

  (** [remove db p tup] deletes a fact, updating every memoized index of
      [p]. Returns [true] iff the fact was present. It costs one removal
      from the membership set and, per index, one {!Relation.Index.remove}:
      a scan of the bucket's hashes and an in-place shift, with no copy
      of the bucket. *)
  val remove : t -> string -> Tuple.t -> bool

  (** [absorb_new db delta] bulk-inserts every fact of [delta], each
      predicate's set in its order, facts the caller guarantees are not
      in [db] — the semi-naive delta contract. Skips every membership
      check. *)
  val absorb_new : t -> t -> unit
end

(** A rule compiled to slot-based join plans (atom ordering, index keys,
    unification ops and filter schedule all precomputed). *)
type prepared

(** [prepare rule] plans and compiles the body join, once in the greedy
    order (most-bound atom first) and once more per positive body atom
    that order does not put first: that atom moved first, the rest in
    greedy order after it. A delta pass may start from those
    {e delta-first} plans (see {!iter_firings}). A step that binds every
    argument position of its atom (by constants or by variables earlier
    steps bound) is compiled as a {e membership test}: it is answered by
    the predicate's membership set ({!Db.memset}), with 0 or 1
    candidates, and no index is ever built for it. A step that binds no
    position walks the predicate's set in its order, and no index is
    built for it either. *)
val prepare : Ast.rule -> prepared

(** [needs_dom prepared] holds iff executing the plan reads the [dom]
    argument of {!run}/{!iter_firings}: some body variable is bound only
    by a negative literal or an (in)equality (Example 4.4), or the rule
    is ∀-quantified. A range-restricted rule never needs it, and a
    caller may then pass any list, e.g. [[]]. *)
val needs_dom : prepared -> bool

(** [run prepared db] enumerates all satisfying substitutions for the body.
    Each substitution binds every body variable (and hence every head
    variable of a safe rule).

    [dom]: the active domain [adom(P, K)]. Variables not bound by a
    positive atom (the paper allows head variables bound only by negative
    literals, cf. Example 4.4) range over [dom], as do ∀-quantified
    variables.

    [neg_db]: when supplied, negative literals are checked against this
    database instead of [db] — the Gelfond–Lifschitz transform primitive
    used by the well-founded engine (positives grow in [db] while the
    negation context stays fixed).

    When the database's trace context is enabled, each call updates the
    counters [matcher.runs], [matcher.candidates] (index-bucket tuples
    scanned), [matcher.substs] (substitutions produced — the ratio is the
    join selectivity), [matcher.delta_first] (delta passes started from
    the delta), [matcher.member_probes] (membership-test steps answered
    by a membership set; a hit also counts as one candidate) and the
    gauge [matcher.substs_max]. [db.index_memo_hits] counts every plan
    read of an index already built, which depends on which structures
    exist before the plan runs: compare it only between runs at one job
    count (a run on several workers {!prewarm}s the indexes, and the
    plans then reuse what a one-worker run builds on first read).

    @raise Invalid_argument if the rule needs a domain (it has
    non-positively-bound or ∀ variables) and [dom] was not supplied. *)
val run :
  ?dom:Value.t list ->
  ?neg_db:Db.t ->
  prepared ->
  Db.t ->
  Ast.subst list

(** [iter_firings prepared db f] enumerates the same matches as {!run}
    (same [dom]/[neg_db] semantics, same trace counters) but stays on
    the interned fast path end to end: instead of decoding
    substitutions, each match instantiates the rule's compiled head
    templates directly and calls [f ~pos pred ids] per head fact ([pos]
    = polarity; ⊥ heads are skipped). [ids] is a scratch array reused
    across calls — probe it with {!Relation.mem_ids} and copy it
    ([Tuple.of_ids (Array.copy ids)]) before retaining. Enumeration
    order is unspecified — callers must be order-insensitive (fixpoint
    engines accumulate into sets). Returns the number of matches.

    [delta]: when [Some (pred, d)], restricts one positive occurrence of
    [pred] at a time to range over the facts of the store [d] (a delta
    [Db]'s, see {!Db}) instead of [pred]'s relation in [db], and unions
    the matches — the semi-naive evaluation primitive. The occurrence
    reads [d] as any step reads [db]: by membership when it binds every
    position, by a walk when it binds none, else through [d]'s index on
    the bound positions, built once per store and positions. If the body
    has no positive occurrence of [pred] there is no match; when several
    occurrences re-find one valuation, it is reported once. A pass on an
    occurrence that is not first in the greedy order runs that
    occurrence's delta-first plan when [d] has fewer facts than the
    greedy plan's first step would enumerate (that step's index bucket
    for its constant key, or the whole set of a keyless step), and the
    greedy plan otherwise: a one-fact delta against a large first
    relation then costs as much as the delta, while a large delta
    against a small first relation keeps the greedy order. The choice
    reads only sizes, so the matches are the same either way. A
    membership-test first step counts as its 0 or 1 candidate. *)
val iter_firings :
  ?delta:string * Db.memset ->
  ?dom:Value.t list ->
  ?neg_db:Db.t ->
  prepared ->
  Db.t ->
  (pos:bool -> string -> int array -> unit) ->
  int

(** [iter_derivations prepared db f] enumerates the same matches as
    {!iter_firings} but exposes the whole firing: for every match and
    every head template it calls [f ~pos pred head_ids bodies] where
    [bodies] lists the rule's positive body atoms — in original body
    order — instantiated under the match as [(pred, ids)] pairs. This
    is the primitive the semiring-annotated engines iterate: a firing's
    annotation is the ⊗-product of its body facts' annotations, ⊕-added
    into the head fact. Every id array (head and body sides) is scratch
    reused across matches — copy before retaining. Returns the number
    of matches. *)
val iter_derivations :
  ?dom:Value.t list ->
  ?neg_db:Db.t ->
  prepared ->
  Db.t ->
  (pos:bool -> string -> int array -> (string * int array) array -> unit) ->
  int

(** [prewarm ~delta_preds prepared db] forces every lazily-built
    structure the plan can touch — step indexes of the greedy plan and,
    after its delta step, of every delta-first plan that starts from one
    of [delta_preds], the predicates whose deltas the plan will be run
    on (the membership set instead,
    for a membership-test step, and the set's settled order,
    {!Tuple.Set.settle}, for a keyless one), membership sets for filter
    probes and head dedup — so that subsequent read-only uses of [db] (directly or
    through {!Db.with_trace} views) trigger no builds. The semi-naive
    loop calls it before it runs a fixpoint on more than one worker
    domain; [neg_db] follows the same convention as {!iter_firings}. Its
    own calls count every build ([db.index_builds]) but no
    [db.index_memo_hits]. *)
val prewarm :
  ?neg_db:Db.t -> delta_preds:string list -> prepared -> Db.t -> unit

(** [instantiate_heads subst heads] grounds head literals into
    [(polarity, pred, tuple)] triples where polarity [true] asserts and
    [false] retracts; ⊥ is returned as the [bottom] flag.
    Result: [(bottom, facts)]. *)
val instantiate_heads :
  Ast.subst -> Ast.hlit list -> bool * (bool * string * Tuple.t) list
