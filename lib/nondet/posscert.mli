(** Possibility and certainty semantics (Definition 5.10, §5.3).

    For a nondeterministic program [P] and input [I]:

    {v poss(I, P) = ∪ { J | (I, J) ∈ eff(P) }
   cert(I, P) = ∩ { J | (I, J) ∈ eff(P) } v}

    Both are deterministic queries. Theorem 5.11: under poss, N-Datalog¬∀
    and N-Datalog¬⊥ express db-np; under cert, db-co-np; for N-Datalog¬¬
    both collapse to db-pspace. Computed here by exhaustive enumeration of
    the effect (exponential — that is what db-np costs on a deterministic
    machine). *)

open Relational

(** [poss ?fuel p inst], enumerating at most [fuel] states as
    {!Enumerate.effect}. The union over an empty effect is the empty
    instance. @raise Relational.Fuel.Exhausted as {!Enumerate.effect}. *)
val poss : ?fuel:int -> Datalog.Ast.program -> Instance.t -> Instance.t

(** [cert ?fuel p inst], with the budget of {!poss}. The intersection
    over an empty effect is taken to be the empty instance (the paper
    leaves this degenerate case open; empty keeps [cert ⊆ poss]). *)
val cert : ?fuel:int -> Datalog.Ast.program -> Instance.t -> Instance.t
