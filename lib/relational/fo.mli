(** First-order logic over relational instances (relational calculus), with
    active-domain semantics.

    Quantifiers range over the active domain of the instance (optionally
    extended with extra constants), which is the standard domain-independent
    reading used throughout the paper. [eval] computes the set of satisfying
    valuations of a formula's free variables — i.e. the answer of a calculus
    query — and [sentence] decides a closed formula.

    Evaluation is by {e safe-range compilation} to {!Algebra} plans
    (Abiteboul–Hull–Vianu): ∃ becomes projection, ∧ becomes hash joins
    and selections, safe ¬ becomes antijoin, and any subformula outside
    the safe fragment falls back to bounded active-domain expansion {e per
    free variable} (counted by the [fo.plan.fallback_vars] metric), never
    for the whole formula. Plans are memoized per (formula, output
    columns, domain); the [fo.plan.compiled] counter ticks per actual
    compilation. The pre-compilation enumerators survive as
    [eval_naive] / [sentence_naive] reference oracles. *)

type term = Var of string | Cst of Value.t

type formula =
  | True
  | False
  | Atom of string * term list  (** [R(t1, ..., tk)] *)
  | Eq of term * term
  | Not of formula
  | And of formula * formula
  | Or of formula * formula
  | Implies of formula * formula
  | Exists of string list * formula
  | Forall of string list * formula

(** [free_vars f] lists the free variables, each once, in first-occurrence
    order. *)
val free_vars : formula -> string list

(** [constants f] lists the constants mentioned by [f]. *)
val constants : formula -> Value.t list

(** {1 Shared syntax collectors}

    The fixpoint logic re-uses the collectors behind {!free_vars} and
    {!constants} for its own formula type: the caller supplies a
    traversal that reports variable occurrences (with the enclosing
    bound-variable stack) resp. constants, and the accumulator — a
    hashtable-backed dedup preserving first-occurrence order, resp. a
    sorted constant set — lives here once. *)

val collect_free_vars :
  ((string list -> string -> unit) -> unit) -> string list

val collect_constants : ((Value.t -> unit) -> unit) -> Value.t list

type env = (string * Value.t) list

(** [holds ?dom inst env f] decides satisfaction of [f] under valuation
    [env], quantifiers ranging over [dom] (default: active domain of [inst]
    plus constants of [f]). This is the naive recursive evaluator — a
    single-valuation check has no plan to amortize.
    @raise Failure if a free variable of [f] is unbound by [env]. *)
val holds : ?dom:Value.t list -> Instance.t -> env -> formula -> bool

(** [eval ?trace ?dom inst f vars] computes the relation
    [{ (v(x))_{x in vars} | v valuates free_vars f into dom, f holds }]
    by compiling [f] to an algebra plan and executing it on [inst].
    [vars] must be a superset of [free_vars f] (extra variables range over
    the whole domain — the usual calculus convention is disallowed here:
    @raise Invalid_argument listing {e all} missing free variables).
    [profile] records per-operator statistics (see {!run_plan}); since
    plans are memoized, a subsequent {!compile} with the same arguments
    returns the same physical plan, whose tree the profile annotates. *)
val eval :
  ?trace:Observe.Trace.ctx ->
  ?profile:Algebra.profile ->
  ?dom:Value.t list ->
  Instance.t ->
  formula ->
  string list ->
  Relation.t

(** [eval_naive] — the pre-compilation active-domain enumerator
    ([dom^{|vars|}] candidate valuations, each checked with {!holds});
    kept as the reference oracle for the compiled path. *)
val eval_naive :
  ?dom:Value.t list -> Instance.t -> formula -> string list -> Relation.t

(** [sentence ?trace ?dom inst f] decides a closed formula through the
    compiled path (a nullary plan).
    @raise Invalid_argument listing all free variables if [f] is open. *)
val sentence :
  ?trace:Observe.Trace.ctx ->
  ?profile:Algebra.profile ->
  ?dom:Value.t list ->
  Instance.t ->
  formula ->
  bool

(** [sentence_naive] — reference oracle for {!sentence}. *)
val sentence_naive : ?dom:Value.t list -> Instance.t -> formula -> bool

(** {1 Plans}

    [compile] and [run_plan] expose the two phases of [eval] so callers
    evaluating one query against many instances (the while-language
    interpreter, the fixpoint iterations) pay compilation once. *)

type plan

(** [compile ?trace ?dom f vars] compiles [f] with output columns [vars].
    Memoized on [(f, vars, dom)]; [trace] counts [fo.plan.compiled] and
    [fo.plan.fallback_vars] on cache misses. The default-domain plan is
    instance-independent: the domain enters as an {!Algebra.Adom} leaf
    plus the formula's constants. *)
val compile :
  ?trace:Observe.Trace.ctx -> ?dom:Value.t list -> formula -> string list -> plan

(** [run_plan ?trace ?profile inst p] executes a compiled plan. An atom
    whose arity disagrees with the instance's relation is uniformly
    false under the naive semantics; such plans are transparently
    recompiled with the offending atoms replaced by [False]. [profile]
    is handed to {!Algebra.eval} to record per-operator row counts and
    wall time (see {!Explain}). *)
val run_plan :
  ?trace:Observe.Trace.ctx -> ?profile:Algebra.profile -> Instance.t ->
  plan -> Relation.t

(** The compiled algebra expression (inspection/debugging). *)
val plan_expr : plan -> Algebra.expr

val pp : Format.formatter -> formula -> unit
