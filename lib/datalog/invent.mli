(** Datalog¬new — value invention (§4.3).

    Syntax is Datalog¬ except that variables may occur only in the head of
    a rule; such variables are valuated with {e distinct fresh values
    outside the current active domain}, once per applicable body
    instantiation. The inflationary semantics is otherwise unchanged.
    Because re-firing a body instantiation at a later stage must not mint
    new values forever, each (rule, body-instantiation) pair fires exactly
    once — the standard reading under which the semantics is
    deterministic up to the choice of fresh values (and fully
    deterministic on invention-free answers).

    Theorem 4.6: Datalog¬new expresses all computable queries — the
    invented values supply the unbounded workspace a Turing machine needs
    (see {!Tm_compile} for the executable construction). Termination is
    therefore undecidable; [run] takes fuel. *)

open Relational

type result = {
  instance : Instance.t;  (** the fixpoint *)
  stages : int;
  invented : int;  (** how many fresh values were created *)
}

(** [run ?fuel p inst] runs to the fixpoint within [fuel] stages (default
    10_000). [trace] wraps each stage in a ["round"] span (close field
    [delta] = facts inserted) and maintains [fixpoint.*],
    [rule_firings.*] and [invent.values] (the running number of fresh
    values minted).
    @raise Ast.Check_error if [p] is not Datalog¬new syntax.
    @raise Fuel.Exhausted (engine ["invent"]) when the stages run out. *)
val run :
  ?fuel:int -> ?trace:Observe.Trace.ctx -> Ast.program -> Instance.t -> result

(** [answer p inst pred] returns [pred]'s relation {e restricted to
    invention-free tuples} — the paper's safety restriction guaranteeing a
    deterministic query: programs whose answers never contain invented
    values define deterministic queries. Use [answer_exn] to additionally
    enforce the restriction. @raise Fuel.Exhausted as {!run}. *)
val answer :
  ?fuel:int ->
  ?trace:Observe.Trace.ctx ->
  Ast.program ->
  Instance.t ->
  string ->
  Relation.t

(** [answer_exn p inst pred] like [answer] but
    @raise Failure if the relation contains an invented value. *)
val answer_exn :
  ?fuel:int -> Ast.program -> Instance.t -> string -> Relation.t
