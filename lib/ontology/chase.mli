(** Datalog± — Datalog with existentially quantified rule heads, evaluated
    by the chase (§6 of the paper: "Datalog for ontologies", the
    Calì–Gottlob–Lukasiewicz family; also the engine room of the paper's
    Vadalog discussion).

    A {e tuple-generating dependency} (tgd) is written as an {!Ast.rule}
    with a (possibly multi-atom) positive head and positive body; head
    variables that do not occur in the body are the {e existential}
    variables — the same syntactic device as Datalog¬new's invention
    (§4.3), which is no accident: the chase materializes fresh {e nulls}
    exactly where Datalog¬new invents values.

    The {e restricted chase}: a trigger (tgd + body match) is applied only
    if its head cannot already be satisfied in the current instance; an
    application extends the match with fresh nulls for the existential
    variables and adds the head atoms. Termination is undecidable in
    general; {!weakly_acyclic} gives the standard sufficient condition,
    and the syntactic classes of Datalog± ({!is_linear}, {!is_guarded})
    are recognized.

    Certain answers to a conjunctive query are computed by chasing and
    keeping null-free answer tuples — sound and complete when the chase
    terminates. *)

open Relational

type tgd = Datalog.Ast.rule

(** [check tgds] validates: positive multi-atom heads, positive bodies, no
    ∀/⊥/(in)equalities; every body variable of a head atom occurs in the
    body. @raise Datalog.Ast.Check_error otherwise. *)
val check : tgd list -> unit

(** [is_linear tgds] — every body is a single atom. *)
val is_linear : tgd list -> bool

(** [is_guarded tgds] — every tgd has a body atom containing all body
    variables (linear ⊆ guarded). *)
val is_guarded : tgd list -> bool

(** [weakly_acyclic tgds] — no cycle through a "special" (existential)
    edge in the position dependency graph; guarantees chase
    termination in polynomially many steps. *)
val weakly_acyclic : tgd list -> bool

type result = {
  instance : Instance.t;  (** the chased instance, nulls included *)
  steps : int;  (** trigger applications *)
  nulls : int;  (** fresh nulls created *)
}

(** [chase ?fuel tgds inst] runs the restricted chase to termination
    within [fuel] trigger applications (default 10_000). [trace] wraps
    each pass in a ["round"] span (close field [firings]) and counts
    [chase.firings], [chase.nulls] and [fixpoint.rounds].
    @raise Relational.Fuel.Exhausted (engine ["chase"]) when the trigger
    applications run out. *)
val chase :
  ?fuel:int -> ?trace:Observe.Trace.ctx -> tgd list -> Instance.t -> result

(** A conjunctive query: positive atoms plus answer variables. *)
type cq = { body : Datalog.Ast.atom list; answer : string list }

(** [certain_answers ?fuel tgds inst q] — chase, match [q], keep
    null-free tuples. @raise Relational.Fuel.Exhausted as {!chase}. *)
val certain_answers :
  ?fuel:int ->
  ?trace:Observe.Trace.ctx ->
  tgd list ->
  Instance.t ->
  cq ->
  Relation.t

(** [bcq ?fuel tgds inst atoms] — boolean query: is there a match of
    [atoms] (nulls allowed as witnesses)? @raise Relational.Fuel.Exhausted
    as {!chase}. *)
val bcq : ?fuel:int -> tgd list -> Instance.t -> Datalog.Ast.atom list -> bool
