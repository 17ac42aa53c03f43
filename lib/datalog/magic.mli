(** Magic-sets rewriting for positive Datalog with a query (§6's
    "intervening Datalog research": the classic optimization developed in
    the deductive-database era; see also the leapfrog/worst-case-optimal
    line the paper cites for LogicBlox).

    Given a program and a query atom with some constant arguments, the
    rewriting specializes the program so that bottom-up evaluation only
    derives facts relevant to the query, simulating top-down (SLD-style)
    goal direction. We implement generalized magic sets with the standard
    left-to-right sideways-information-passing strategy:

    - predicates are {e adorned} with bound/free patterns ([b]/[f]);
    - each adorned idb predicate [p^a] gets a {e magic} predicate
      [m_p^a] holding the relevant bindings;
    - original rules are specialized per adornment and guarded by their
      magic predicate; magic rules propagate bindings through bodies;
    - the stored facts of each adorned predicate feed it under the same
      guard ([p__a(X̄) :- m__p__a(bound X̄), p(X̄)]), so an idb predicate
      with base facts of its own is answered as the full fixpoint would.

    Benchmark E8 measures the speedup over full semi-naive evaluation on
    point-reachability queries. *)

open Relational

type rewritten = {
  program : Ast.program;  (** the rewritten (still pure Datalog) program *)
  seed : string * Tuple.t;  (** the magic seed fact *)
  query_pred : string;
      (** adorned name answering the query; same arity as the original *)
}

(** [rewrite p query] builds the magic program for [query], an atom whose
    constant arguments are the bound positions. An all-free query is
    rewritten too (its magic guard is the 0-ary seed, so the rewriting is
    a no-op up to reachability of rules from the query).
    @raise Ast.Check_error if [p] is not pure Datalog, [query]'s
    predicate is not an idb predicate of [p], or [query]'s arity differs
    from the predicate's. *)
val rewrite : Ast.program -> Ast.atom -> rewritten

(** [query_filter ~keyed q] is the test a tuple of [q]'s predicate
    passes when it matches [q], comparing interned ids: it carries
    [q]'s constants at their positions (not tested when [keyed], for
    candidates an index lookup on those positions returned) and one id
    at every position of a variable [q] repeats. [None] when nothing is
    left to test. Both query paths filter their answers with it: a
    session's {!ask} and the resident server's materialized lookup. *)
val query_filter : keyed:bool -> Ast.atom -> (Tuple.t -> bool) option

(** A query session: one persistent {!Matcher.Db} plus rewrites memoized
    per (predicate, adornment). Each {!ask} inserts the query's seed and
    resumes semi-naive evaluation on the shared database, so indexes and
    previously derived magic/adorned facts are reused across queries —
    a repeat or overlapping query re-derives nothing it already holds. *)
type session

(** [session p inst] opens a query session over program [p] and instance
    [inst]. [trace] receives, per {!ask}: the counters [magic.queries],
    [magic.rewrite_memo_hits], [magic.rewritten_rules] and
    [magic.answer_tuples], a [magic.rewrite] event on each fresh
    rewrite, and the semi-naive run's spans and counters.
    @raise Ast.Check_error if [p] is not pure Datalog. *)
val session :
  ?trace:Observe.Trace.ctx -> Ast.program -> Instance.t -> session

(** The rewrites a session memoizes, with their prepared plans: they
    depend on the program and the binding pattern only, never on a
    database or a query's constants. *)
type memo

(** [memo ()] is an empty memo. *)
val memo : unit -> memo

(** [session_db p db] is a session that evaluates in [db] itself rather
    than in a fresh database over an instance: the resident server
    passes a {!Matcher.Db.sharing} view, so its queries probe the
    engine's own indexes over the program's EDB predicates. The
    session writes only magic and adorned predicates into [db].
    [memo] (a fresh one by default) holds the session's rewrites; a
    memo shared by sessions over the same program [p] compiles each
    binding pattern once for all of them, and its hits count as
    [magic.rewrite_memo_hits]. *)
val session_db :
  ?trace:Observe.Trace.ctx ->
  ?memo:memo ->
  Ast.program ->
  Matcher.Db.t ->
  session

(** [ask s query] answers [query] within session [s]: the tuples of the
    query's predicate matching the query's constants and repeated
    variables (full original arity, so the result is directly comparable
    with unrewritten evaluation).
    @raise Ast.Check_error if [query]'s predicate is not idb. *)
val ask : session -> Ast.atom -> Relation.t

(** [answer p inst query] is [ask (session p inst) query] — a one-shot
    session. *)
val answer :
  ?trace:Observe.Trace.ctx -> Ast.program -> Instance.t -> Ast.atom -> Relation.t
