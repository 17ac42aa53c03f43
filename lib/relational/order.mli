(** Ordered databases (Section 4.5 of the paper).

    An ordered database adjoins to an instance a total order on its active
    domain. Theorems 4.7/4.8 state that with this extra structure the
    deterministic languages capture db-ptime / db-pspace. We materialize the
    order as relations:

    - [lt(x, y)] — the strict total order (quadratic in the domain size),
    - [succ(x, y)] — its successor relation (linear),
    - [first(x)] / [last(x)] — the min and max constants, which Theorem 4.7
      notes must be given explicitly for semi-positive Datalog¬.

    The order used is {!Value.compare} restricted to the active domain, so
    it is deterministic for a given instance. *)

(** [adjoin ?include_lt inst] returns [inst] extended with the order
    relations [lt], [succ], [first] and [last] over [adom inst].
    [include_lt] (default [true]) controls whether the quadratic [lt]
    relation is materialized. On an instance with an empty active domain
    the order relations are all empty. *)
val adjoin : ?include_lt:bool -> Instance.t -> Instance.t

(** [is_ordered inst] checks that [inst] contains succ/first/last
    relations forming a valid successor structure on some subset of its
    domain: exactly one [first] and one [last] (or all empty on empty
    domain), and [succ] a chain from first to last. *)
val is_ordered : Instance.t -> bool
