(** Datalog¬¬ — negations in rule heads, interpreted as retractions
    (§4.2).

    The immediate-consequence operator fires all rules in parallel; facts
    derived positively are inserted and facts derived negatively are
    deleted. When the same fact is derived both positively and negatively
    in one firing, the {e conflict policy} decides (the paper's §4.2
    enumerates all four, and notes the choice yields equivalent
    languages):

    - {!Pos_priority}: insertion wins — the paper's chosen semantics;
    - {!Neg_priority}: deletion wins;
    - {!Noop}: the fact keeps its previous status;
    - {!Error}: the result is undefined (reported as {!Contradiction}).

    Termination is not guaranteed (the paper's flip-flop program
    oscillates forever); the engine detects cycles and reports
    {!Diverged}. Input (edb) relations may appear in heads: Datalog¬¬ can
    express updates. Expressiveness: exactly the {e while} queries
    (db-pspace on ordered databases, Theorem 4.8). *)

open Relational

type policy = Pos_priority | Neg_priority | Noop | Error

type outcome =
  | Fixpoint of { instance : Instance.t; stages : int }
  | Diverged of {
      entered : int;  (** stage at which the repeating state first occurred *)
      period : int;  (** cycle length ≥ 1 *)
      states : Instance.t list;  (** the repeating cycle of instances *)
    }
  | Contradiction of {
      stage : int;
      pred : string;
      tuple : Tuple.t;  (** witness fact derived both ways under {!Error} *)
    }

(** [run ?policy ?fuel p inst] iterates the operator from [inst].
    Cycle detection is exact (all visited instances are retained), bounded
    by [fuel] stages (default 10_000; with exact detection running out
    indicates a genuinely growing state).
    [trace] wraps each operator application in a ["round"] span whose
    [delta] close field is the {e symmetric-difference} size (the state
    can shrink), and emits a [diverged] or [contradiction] event on those
    outcomes.
    @raise Ast.Check_error if [p] is not Datalog¬¬ syntax.
    @raise Fuel.Exhausted (engine ["noninflationary"]) when the stages
    run out. *)
val run :
  ?policy:policy ->
  ?fuel:int ->
  ?trace:Observe.Trace.ctx ->
  Ast.program ->
  Instance.t ->
  outcome

(** [eval p inst] expects termination.
    @raise Failure on divergence or contradiction.
    @raise Fuel.Exhausted as {!run}. *)
val eval :
  ?policy:policy ->
  ?trace:Observe.Trace.ctx ->
  Ast.program ->
  Instance.t ->
  Instance.t

val answer :
  ?policy:policy ->
  ?trace:Observe.Trace.ctx ->
  Ast.program ->
  Instance.t ->
  string ->
  Relation.t

(** [step ?policy p inst] applies the operator once — the building block
    is exposed for the production-rule layer and for tests. Returns
    [Error (pred, tuple)] on contradiction under {!Error}. *)
val step :
  ?policy:policy ->
  Ast.program ->
  Instance.t ->
  (Instance.t, string * Tuple.t) Stdlib.result
