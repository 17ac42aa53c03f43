(** The resident evaluation engine: one long-lived materialized fixpoint
    maintained incrementally across assert/retract batches, independent
    of any transport. The socket daemon ({!Daemon}) wraps it in a
    protocol; the bench harness drives it directly.

    State held for the life of the process:

    - a {!Matcher.Db} containing the full materialization (EDB plus
      every derived fact) with its memoized indexes and membership sets;
    - the base instance (the asserted facts — the EDB — as distinct from
      what is derived), which is what retraction and the
      recompute-from-scratch oracle are defined against;
    - compiled rule plans, delta tables and DRed guard plans
      ({!Eval_util.prepare} / {!Eval_util.prepare_dred}), built once;
    - the demand path's magic programs, rewritten and prepared once per
      (predicate, adornment) on first use ({!Magic.memo}).

    The demand-driven query path keeps no facts of its own: each demand
    query runs magic sets in a query-scoped {!Matcher.Db.sharing} view,
    dropped when the query returns. The view reads the program's EDB
    predicates straight from the materialization's {!Matcher.Db} (their
    memoized indexes included, so an index a query builds there stays
    and later writes maintain it) and every other predicate from the
    base instance. Each write batch is a {!Matcher.Db} of its own, and
    asserts, DRed cones and DRed propagation all run delta passes over
    such Dbs, which start from the delta when it is the smaller side
    ({!Matcher.iter_firings}), so their cost follows the change, not the
    size of the EDB. *)

open Relational
open Datalog

type t

(** Which evaluation path a {!query} takes. [Materialized] (the default)
    filters the maintained fixpoint through the db's memoized indexes —
    O(answer). [Demand] runs the magic-set rewriting of the query over
    the current base facts (a one-shot {!Magic.session_db} on Matcher
    plans, in a view that shares the engine's EDB relations and
    indexes), so it derives only the facts the query needs. Stored facts
    of an idb predicate count as in the materialized view. *)
type via = Materialized | Demand

(** [create ?trace program edb] checks [program] is pure Datalog,
    materializes its fixpoint over [edb] and returns the resident state.
    @raise Ast.Check_error unless the program is pure Datalog (single
    positive heads, positive bodies) and every fact of [edb] has its
    predicate's arity in it ({!Ast.check_facts}). *)
val create : ?trace:Observe.Trace.ctx -> Ast.program -> Instance.t -> t

(** [assert_facts t batch] adds the facts of [batch] to the base
    instance and propagates the genuinely new ones through the
    semi-naive increment loop. Returns [(added, derived, stages)]:
    facts new to the base instance, additional facts derived from them,
    and propagation stages. Idempotent on duplicates. A batch with a
    fact whose arity is not its predicate's, in the program or in the
    stored facts, raises before anything changes ([Ast.Check_error] or
    [Invalid_argument]); so does {!retract_facts}. *)
val assert_facts : t -> Instance.t -> int * int * int

(** [retract_facts t batch] withdraws the facts of [batch] from the base
    instance and maintains the materialization by delete-and-rederive
    ({!Eval_util.dred}). Returns [(removed, overdeleted, rederived)]:
    facts removed from the base instance, facts over-deleted, and facts
    re-derived. Facts not in the base instance are ignored (a derived
    fact cannot be retracted — withdraw its support instead). *)
val retract_facts : t -> Instance.t -> int * int * int

(** [query t ?via atom] answers a point query: the tuples of [atom]'s
    predicate matching its constants and repeated variables.
    @raise Ast.Check_error when [via] is [Demand] and the predicate is
    not idb.
    @raise Invalid_argument if [atom]'s arity differs from the stored
    relation's. *)
val query : t -> ?via:via -> Ast.atom -> Relation.t

(** The current full materialization (base facts plus derived). *)
val instance : t -> Instance.t

(** The current base instance (asserted facts only). *)
val edb : t -> Instance.t

val program : t -> Ast.program
