(** Exhaustive computation of the effect relation (Definition 5.2).

    Explores the state graph reachable from the input by single-rule
    firings and collects the terminal instances — the [J]s with
    [(I, J) ∈ eff(P)]. Exponential in general (that is the point of
    nondeterminism: experiment E5 counts [2^k] orientations of [k]
    two-cycles); a state budget guards runaway programs. Branches that
    derive ⊥ are abandoned, contributing nothing. *)

open Relational

type stats = {
  terminals : Instance.t list;  (** the effect's right column, sorted *)
  explored : int;  (** distinct states visited *)
  abandoned_branches : int;  (** states with an applicable ⊥ firing *)
}

(** [effect ?fuel p inst] explores at most [fuel] distinct states
    (default 100_000).
    @raise Relational.Fuel.Exhausted (engine ["nondet.enumerate"]) when
    a further state would exceed the budget, with the state being
    expanded. *)
val effect : ?fuel:int -> Datalog.Ast.program -> Instance.t -> stats

(** [terminals ?fuel p inst] is just the terminal instances. *)
val terminals :
  ?fuel:int -> Datalog.Ast.program -> Instance.t -> Instance.t list
