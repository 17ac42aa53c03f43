(** Flavored entry points for the nondeterministic language family of §5.

    Each function validates its fragment's syntax and then delegates to the
    shared machinery ({!Nd_eval}, {!Enumerate}):

    - {b N-Datalog¬}: positive heads, body negation and (in)equality —
      strictly weaker than ndb-ptime (Example 5.4: it cannot compute
      [P − π_A(Q)]);
    - {b N-Datalog¬¬}: negative heads (deletions) — exactly ndb-pspace
      (Theorem 5.3);
    - {b N-Datalog¬⊥}: ⊥ abandons a computation — exactly ndb-ptime
      (Theorem 5.6);
    - {b N-Datalog¬∀}: universally quantified bodies — exactly ndb-ptime
      (Theorem 5.6). *)

open Relational

type flavor = Neg | Negneg | Bottom | Forall

(** [check flavor p] validates [p] against the flavor's syntax.
    @raise Datalog.Ast.Check_error on violations. *)
val check : flavor -> Datalog.Ast.program -> unit

(** [run flavor ~seed ?fuel p inst] — checked random walk, [fuel] as
    {!Nd_eval.run}. @raise Relational.Fuel.Exhausted as {!Nd_eval.run}. *)
val run :
  flavor ->
  seed:int ->
  ?fuel:int ->
  Datalog.Ast.program ->
  Instance.t ->
  Nd_eval.outcome

(** [effect flavor ?fuel p inst] — checked exhaustive effect, [fuel] as
    {!Enumerate.effect}. @raise Relational.Fuel.Exhausted as
    {!Enumerate.effect}. *)
val effect :
  flavor ->
  ?fuel:int ->
  Datalog.Ast.program ->
  Instance.t ->
  Enumerate.stats
