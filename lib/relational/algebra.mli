(** Relational algebra over positional columns.

    The paper's Section 2 recalls the algebra: projection, selection,
    renaming, join, difference, union. We use the positional (unnamed)
    perspective: columns are 0-based indices; renaming is a column
    permutation; the natural join is expressed as an equijoin on explicit
    column pairs followed by projection. These are the standard equivalences
    between the named and unnamed algebras.

    On top of the classical operators, the safe-range compiler
    ({!Fo.compile}) needs semijoin/antijoin, an active-domain leaf, and
    complement-within-domain; all joins execute as hash joins keyed on
    projected interned-id vectors. *)

(** Selection conditions: conjunctions/disjunctions of (in)equalities
    between columns and/or constants. *)
type cond =
  | True
  | Col_eq_col of int * int      (** σ_{i = j} *)
  | Col_eq_const of int * Value.t  (** σ_{i = c} *)
  | Col_lt_col of int * int      (** σ_{i < j} under {!Value.compare} *)
  | Not of cond
  | And of cond * cond
  | Or of cond * cond

(** Algebra expressions. *)
type expr =
  | Rel of string                      (** database relation by name *)
  | Const of Relation.t                (** literal relation *)
  | Project of int list * expr         (** π: keep columns, in order *)
  | Select of cond * expr              (** σ *)
  | Product of expr * expr             (** × *)
  | Join of (int * int) list * expr * expr
      (** equijoin: pairs [(i, j)] equate column [i] of the left operand
          with column [j] of the right; result is the concatenation of the
          operand tuples (no columns dropped) *)
  | Union of expr * expr
  | Diff of expr * expr
  | Inter of expr * expr
  | Semijoin of (int * int) list * expr * expr
      (** ⋉: left tuples with at least one right match on the pairs. An
          empty pair list keeps the left operand iff the right is
          non-empty (every tuple matches on the empty key). *)
  | Antijoin of (int * int) list * expr * expr
      (** ▷: left tuples with no right match on the pairs — the compiled
          form of safe negation. An empty pair list keeps the left
          operand iff the right is empty. *)
  | Adom
      (** the unary active-domain relation of the evaluated instance
          (memoized per instance, see {!Instance.adom}) *)
  | Complement of int * expr * expr
      (** [Complement (k, dom, e)]: [dom^k] minus [e], where [dom] is a
          unary domain expression — negation bounded by active-domain
          expansion, [k] columns wide. [e] must have arity [k]. *)

exception Type_error of string

(** [arity schema e] computes the output arity, checking column references
    and operand compatibility. @raise Type_error on ill-typed expressions
    (unknown relation, column out of range, arity mismatch in set
    operations); the message names the offending sub-expression via
    {!pp}. *)
val arity : Schema.t -> expr -> int

(** {1 Per-operator profiles}

    A {!profile} accumulates, per plan node, how many times it executed
    and its row flow and wall time — the raw material of [EXPLAIN]
    (see {!Explain}). Nodes are identified {e physically} ([==]):
    a memoized plan is a fixed tree, so each operator occurrence keeps
    its own entry, while a sub-expression the compiler shares (e.g. one
    domain expression under several complements) accumulates across all
    its parents. Operators the evaluator fuses away — a projection run
    inside a join's probe loop, a complement probed against a join's
    dedup set — never execute as nodes and get no entry; their work
    rolls up into the fusing parent's self time. *)

type profile

(** Accumulated statistics of one plan node. [rows_in] sums the output
    rows of the node's direct (non-fused) children across executions;
    [rows_out] sums its own output cardinality. [self_ns] is wall time
    excluding profiled children, [total_ns] including them. *)
type node_stats = {
  execs : int;
  rows_in : int;
  rows_out : int;
  self_ns : int;
  total_ns : int;
}

(** [profile ()] is a fresh, empty profile. Pass the same profile to
    several {!eval} calls (the demand engine's many rule plans, a
    fixpoint's rounds) to aggregate across them. *)
val profile : unit -> profile

(** [profile_stats p e] is the accumulated stats of node [e] (physical
    identity), or [None] if it never executed under [p]. *)
val profile_stats : profile -> expr -> node_stats option

(** [profile_memo p e] is [(memo, runs)] for a join, semijoin or
    antijoin node [e] — fused into a parent or not — that ran a hash
    join under [p]: of its [runs] executions, [memo] probed a memoized
    index of a stored operand (see {!Relation.index}). [None] for other
    nodes and nodes that never ran one. *)
val profile_memo : profile -> expr -> (int * int) option

(** [eval ?trace ?profile inst e] evaluates [e] against [inst].
    Relations absent from [inst] are empty; in that case column
    references cannot be checked dynamically, so use {!arity} with a
    schema for static checking. When [trace] is enabled, every hash-join
    probe pass accumulates into the [ra.join.probes] counter (tuples
    that probed an index), and the memoized indexes of stored operands
    into [ra.index.builds]/[ra.index.hits]. A join, semijoin or antijoin
    whose operand is a stored leaf ([Rel]) probes that relation value's
    memoized index once it exists ({!Relation.index}), so an unchanged
    relation is indexed once across rounds and queries. When
    [profile] is given, every evaluated node records row counts and
    wall time into it; when absent the instrumentation costs one branch
    per node.
    @raise Type_error on dynamically detected arity violations (message
    names the offending sub-expression). *)
val eval :
  ?trace:Observe.Trace.ctx -> ?profile:profile -> Instance.t -> expr ->
  Relation.t

(** [holds_cond c t] evaluates a condition on one tuple. *)
val holds_cond : cond -> Tuple.t -> bool

val pp : Format.formatter -> expr -> unit
val pp_cond : Format.formatter -> cond -> unit
