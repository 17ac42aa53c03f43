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

(** Hash tables keyed by interned-id vectors — the representation facts
    travel in on the fast firing path. Exposed so fixpoint engines can
    deduplicate deltas with the same flat hashing the matcher uses. *)
module IdTbl : Hashtbl.S with type key = int array

(** A mutable database view with memoized secondary indexes that are
    maintained incrementally: create one [Db] per evaluation (not per
    stage) and feed it new facts with {!Db.insert} or {!Db.absorb} —
    every cached index is updated in place instead of being rebuilt. *)
module Db : sig
  type t

  (** [of_instance ?trace inst] wraps [inst]. The [trace] context (default
      {!Observe.Trace.null}) receives the database's hot-path counters:
      [db.index_builds] / [db.index_memo_hits] (secondary-index
      construction vs. memo reuse), [db.inserts] / [db.insert_dups], and
      the matcher counters of every {!run} against this database. *)
  val of_instance : ?trace:Observe.Trace.ctx -> Instance.t -> t

  (** The trace context the database reports to. *)
  val trace : t -> Observe.Trace.ctx

  (** [with_trace db ctx] is a {e view} of [db] reporting to [ctx]: it
      shares every memoized structure (indexes, membership sets, pending
      buffer) with [db] but counts into its own context. The parallel
      engines hand one view per worker so counters never contend. A view
      is read-only by convention: callers must {!prewarm} every
      structure their plans touch before sharing views across domains,
      must not mutate through a view, and must not use it through
      {!instance}/{!relation} (the underlying-instance pointer is frozen
      at view-creation time). *)
  val with_trace : t -> Observe.Trace.ctx -> t

  (** [instance db] is the current underlying instance (a persistent
      snapshot; later mutations of [db] do not affect it). *)
  val instance : t -> Instance.t

  (** [relation db p] is the relation bound to predicate [p]. *)
  val relation : t -> string -> Relation.t

  (** [lookup db p bindings] returns the tuples of [p] agreeing with
      [bindings], a list of (position, value) constraints. Builds (and
      caches) a hash index on the constrained positions. *)
  val lookup : t -> string -> (int * Value.t) list -> Tuple.t list

  (** [mem db p tup] tests a ground fact. *)
  val mem : t -> string -> Tuple.t -> bool

  (** A per-predicate flat hash membership set: O(1) probes on interned id
      vectors, built lazily on first use and then maintained incrementally
      by {!insert}/{!remove}/{!absorb}. Unlike walking the persistent
      relation trie, probes stay cache-friendly however large the relation
      grows — fixpoint engines use this for their freshness checks. *)
  type memset

  (** [memset db p] is the membership set of predicate [p] (building it,
      once, if needed). The handle stays valid across updates to [db]. *)
  val memset : t -> string -> memset

  (** [memset_mem m ids] tests the fact with argument ids [ids]. *)
  val memset_mem : memset -> int array -> bool

  (** [insert db p tup] adds a fact, updating every memoized index of
      [p]. Returns [true] iff the fact was new. *)
  val insert : t -> string -> Tuple.t -> bool

  (** [remove db p tup] deletes a fact, updating every memoized index of
      [p] {e and} the lazy pending buffer — a fact queued by
      {!absorb_new} but not yet flushed into the persistent trie is
      purged too, so no later read can resurrect it. Returns [true] iff
      the fact was present. *)
  val remove : t -> string -> Tuple.t -> bool

  (** [absorb db delta] inserts every fact of [delta] into [db],
      maintaining all memoized indexes incrementally. *)
  val absorb : t -> Instance.t -> unit

  (** [absorb_new db p news] bulk-inserts facts of [p] that the caller
      guarantees fresh (not in [db]) and pairwise distinct — the
      semi-naive delta contract. Skips every membership check. *)
  val absorb_new : t -> string -> Tuple.t list -> unit
end

(** Shard-owned predicate state for the hash-partitioned parallel
    fixpoint: every fact is owned by exactly one of [nshards] shards,
    decided by an avalanche hash of its first-column value id, and each
    worker domain holds one [Shard.t] — membership sets over its owned
    partition plus memoized (pred, positions) indexes over its per-round
    delta slices. A shard is mutated only by its owning worker, so
    freshness checks are local: no locks, no global dedup merge. *)
module Shard : sig
  type t

  (** [owner ~nshards ids] is the shard owning the fact with argument
      ids [ids] — a mixed hash of [ids.(0)] modulo [nshards] (arity-0
      facts live on shard 0). Deterministic across workers and runs for
      a fixed interning. *)
  val owner : nshards:int -> int array -> int

  (** [create ~nshards ~shard] is the empty state of shard [shard].
      @raise Invalid_argument unless [0 <= shard < nshards]. *)
  val create : nshards:int -> shard:int -> t

  val id : t -> int

  (** [owns sh ids] is [owner ~nshards ids = id sh]. *)
  val owns : t -> int array -> bool

  (** [mem sh p ids] tests membership of an owned fact. Complete for
      facts of predicates this shard was {!seed}ed with and kept
      up to date through {!add}. *)
  val mem : t -> string -> int array -> bool

  (** [add sh p t] records an owned fact (the caller has established
      ownership and freshness). *)
  val add : t -> string -> Tuple.t -> unit

  (** [seed sh p rel] folds this shard's partition of [rel] into its
      membership set for [p] — the per-fixpoint initialisation, run by
      every worker over the same head-predicate relations. *)
  val seed : t -> string -> Relation.t -> unit

  (** [total sh] is the number of owned facts across predicates. *)
  val total : t -> int

  (** [set_delta sh p ts] installs this shard's slice of the round's
      delta for [p], invalidating memoized indexes over the previous
      slice; {!clear_delta} drops every slice between rounds. *)
  val set_delta : t -> string -> Tuple.t list -> unit

  val clear_delta : t -> unit

  (** [delta sh p] is the installed slice ([[]] when none). *)
  val delta : t -> string -> Tuple.t list

  (** [delta_index sh p positions] is the hash index of [delta sh p] on
      [positions], built once per (pred, positions) per round and shared
      by every rule probing the same bound positions — pass it to
      {!iter_firings} as [delta_index]. *)
  val delta_index : t -> string -> int list -> Tuple.t list IdTbl.t
end

(** A rule compiled to a slot-based join plan (atom ordering, index keys,
    unification ops and filter schedule all precomputed). *)
type prepared

(** [prepare rule] plans and compiles the body join. *)
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

    [delta]: when [Some (pred, rel)], restricts one positive occurrence of
    [pred] at a time to range over [rel] instead of its full relation, and
    unions the results — the semi-naive evaluation primitive. The delta
    relation is indexed per (pred, bound-positions) exactly like the main
    database, so delta candidates are looked up rather than scanned. If
    the body has no positive occurrence of [pred] the result is empty.

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
    join selectivity) and the gauge [matcher.substs_max].

    @raise Invalid_argument if the rule needs a domain (it has
    non-positively-bound or ∀ variables) and [dom] was not supplied. *)
val run :
  ?delta:string * Relation.t ->
  ?dom:Value.t list ->
  ?neg_db:Db.t ->
  prepared ->
  Db.t ->
  Ast.subst list

(** [iter_firings prepared db f] enumerates the same matches as {!run}
    (same [delta]/[dom]/[neg_db] semantics, same dedup, same trace
    counters) but stays on the interned fast path end to end: instead of
    decoding substitutions, each match instantiates the rule's compiled
    head templates directly and calls [f ~pos pred ids] per head fact
    ([pos] = polarity; ⊥ heads are skipped). [ids] is a scratch array
    reused across calls — probe it with {!Relation.mem_ids} and copy it
    ([Tuple.of_ids (Array.copy ids)]) before retaining. Enumeration
    order is unspecified — callers must be order-insensitive (fixpoint
    engines accumulate into sets). The delta is a plain tuple list (the
    representation the fixpoint engines already hold); it is indexed per
    (pred, bound-positions) exactly like {!run}'s — unless [delta_index]
    is supplied, in which case it resolves the index for each set of
    bound positions (the sharded fixpoint passes
    {!Shard.delta_index}, so rules sharing positions reuse one build;
    the function must index exactly the tuples of [delta]). Returns the
    number of matches. *)
val iter_firings :
  ?delta:string * Tuple.t list ->
  ?delta_index:(int list -> Tuple.t list IdTbl.t) ->
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
    reused across matches — copy before retaining. Dedup semantics
    follow {!run}: within one call a (rule, body valuation) pair is
    reported once per delta pass set, so callers summing over multiple
    calls (e.g. per-delta-predicate passes) must dedup firings across
    calls themselves. Returns the number of matches. *)
val iter_derivations :
  ?delta:string * Tuple.t list ->
  ?delta_index:(int list -> Tuple.t list IdTbl.t) ->
  ?dom:Value.t list ->
  ?neg_db:Db.t ->
  prepared ->
  Db.t ->
  (pos:bool -> string -> int array -> (string * int array) array -> unit) ->
  int

(** [prewarm prepared db] forces every lazily-built structure the plan
    can touch — step indexes, membership sets for filter probes and head
    dedup — so that subsequent read-only uses of [db] (directly or
    through {!Db.with_trace} views) trigger no builds. The parallel
    engines call this between barriers, before fanning work out to
    domains; [neg_db] follows the same convention as {!iter_firings}. *)
val prewarm : ?neg_db:Db.t -> prepared -> Db.t -> unit

(** [satisfies db subst blits] checks body literals under a full
    substitution (quantifier-free). Used by the nondeterministic engines
    to re-check applicability.
    @raise Ast.Check_error on unbound variables. *)
val satisfies : Db.t -> Ast.subst -> Ast.blit list -> bool

(** [instantiate_heads subst heads] grounds head literals into
    [(polarity, pred, tuple)] triples where polarity [true] asserts and
    [false] retracts; ⊥ is returned as the [bottom] flag.
    Result: [(bottom, facts)]. *)
val instantiate_heads :
  Ast.subst -> Ast.hlit list -> bool * (bool * string * Tuple.t) list
