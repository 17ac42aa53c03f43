(** Semiring-annotated relations: a {!Relation.t} support plus a
    side-car map from interned-id vectors to {!Semiring.v} values — the
    storage of {!Datalog.Annot_eval}'s annotated fixpoint.

    The side-car representation keeps the set core untouched: Boolean
    evaluation never sees these maps, so the hot path cannot regress. *)

type map
(** Mutable annotation map keyed by interned-id vectors. Tuples absent
    from the map are implicitly [zero]. *)

val create_map : unit -> map
val set : map -> int array -> Semiring.v -> unit

(** [find sr m ids] is the annotation of [ids], or [sr.zero]. *)
val find : Semiring.t -> map -> int array -> Semiring.v

(** [combine sr m ids v]: [m(ids) ← m(ids) ⊕ v]. *)
val combine : Semiring.t -> map -> int array -> Semiring.v -> unit

val fold : (int array -> Semiring.v -> 'a -> 'a) -> map -> 'a -> 'a
val cardinal : map -> int

type rel = { rel : Relation.t; ann : map }
(** An annotated relation: every tuple of [rel] has a non-[zero] entry
    in [ann]. *)

(** [of_relation sr r f] annotates each tuple of [r] with [f t],
    dropping tuples annotated [zero]. *)
val of_relation : Semiring.t -> Relation.t -> (Tuple.t -> Semiring.v) -> rel
