(** Nondeterministic evaluation of N-Datalog¬(¬) programs — §5.1,
    Definitions 5.1 and 5.2 of the paper.

    One {e immediate successor} of an instance [I] is obtained by firing a
    {e single} instantiation of a single rule whose body is true in [I] and
    whose instantiated head is consistent (no fact asserted and retracted
    by the same firing): retracted facts are deleted, asserted facts
    inserted. The {e effect} of a program is the binary relation pairing
    [I] with every [J] reachable by a maximal firing sequence — [J] has no
    immediate successor different from itself.

    The inconsistency symbol ⊥ (N-Datalog¬⊥, §5.2) is treated as a
    derivable pseudo-fact: a computation that fires a ⊥-headed rule is
    {e abandoned} and contributes nothing to the effect; a state with an
    applicable ⊥ instantiation is not terminal. ∀-quantified bodies
    (N-Datalog¬∀) are evaluated over the active domain.

    No-op firings (the successor equals the current instance) are skipped:
    every maximal sequence has a stutter-free counterpart with the same
    endpoint, so the effect relation is unchanged. *)

open Relational

(** What can follow from the current instance in one firing. *)
type successors = {
  changed : Instance.t list;  (** distinct successor instances ≠ current *)
  bottom_applicable : bool;
      (** some applicable instantiation derives ⊥ *)
}

(** [successors p inst] computes all one-step successors. The caller is
    responsible for having validated [p] against the intended fragment
    ({!Datalog.Ast.check_ndatalog} and friends). *)
val successors : Datalog.Ast.program -> Instance.t -> successors

(** [is_terminal p inst]: no immediate successor differs from [inst] and
    no ⊥ is derivable. *)
val is_terminal : Datalog.Ast.program -> Instance.t -> bool

type outcome =
  | Terminal of { instance : Instance.t; steps : int }
  | Abandoned of { steps : int }  (** a ⊥-headed rule fired *)

(** [run ~seed p inst] performs a uniform random walk: at each state one
    applicable, state-changing (or ⊥) instantiation is chosen at random.
    Deterministic for a fixed [seed]. The walk takes at most [fuel]
    firings (default 100_000). [trace] counts [nondet.steps] and
    [nondet.candidates] (applicable firings summed over steps) and emits
    an [abandoned] event when a ⊥-headed rule fires.
    @raise Relational.Fuel.Exhausted (engine ["nondet.walk"]) when the
    firings run out before a terminal state. *)
val run :
  seed:int ->
  ?fuel:int ->
  ?trace:Observe.Trace.ctx ->
  Datalog.Ast.program ->
  Instance.t ->
  outcome

(** [run_until_terminal ~seed ?attempts p inst] retries [run] on ⊥
    abandonment (fresh derived seeds), returning the first terminal
    instance; [None] if all [attempts] (default 100) were abandoned.
    @raise Relational.Fuel.Exhausted as {!run}, on the first attempt
    whose walk runs out of fuel. *)
val run_until_terminal :
  seed:int ->
  ?attempts:int ->
  ?fuel:int ->
  ?trace:Observe.Trace.ctx ->
  Datalog.Ast.program ->
  Instance.t ->
  Instance.t option
