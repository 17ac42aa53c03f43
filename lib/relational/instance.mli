(** Database instances: finite maps from relation names to relation
    instances.

    Absent relations are treated as empty, which matches the paper's
    convention that an instance over a schema assigns a (possibly empty)
    relation to every relation symbol. *)

type t

val empty : t

(** [find name i] is the relation bound to [name] ([Relation.empty] if
    unbound). *)
val find : string -> t -> Relation.t

(** [set name r i] binds relation [name] to [r] (replacing any previous
    binding). Binding an empty relation removes the entry. *)
val set : string -> Relation.t -> t -> t

(** [add_fact name tup i] inserts one tuple into relation [name].
    @raise Invalid_argument on arity mismatch with existing tuples. *)
val add_fact : string -> Tuple.t -> t -> t

(** [add_all name tups i] inserts a batch of tuples into relation [name]
    with a single bulk union.
    @raise Invalid_argument on arity mismatch with existing tuples. *)
val add_all : string -> Tuple.t list -> t -> t

(** [remove_fact name tup i] deletes one tuple (no-op if absent). *)
val remove_fact : string -> Tuple.t -> t -> t

(** [mem_fact name tup i] tests membership of a fact. *)
val mem_fact : string -> Tuple.t -> t -> bool

(** [of_list bindings] builds an instance from name/rows pairs. *)
val of_list : (string * Value.t list list) list -> t

(** [names i] lists the names of non-empty relations, sorted. *)
val names : t -> string list

(** [restrict names i] keeps only the listed relations. *)
val restrict : string list -> t -> t

(** [drop names i] removes the listed relations. *)
val drop : string list -> t -> t

(** [union a b] takes the per-relation union.
    @raise Invalid_argument on arity conflicts. *)
val union : t -> t -> t

(** [diff a b] takes the per-relation difference [a \ b]. *)
val diff : t -> t -> t

(** [subset a b]: every fact of [a] is a fact of [b]. *)
val subset : t -> t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int

(** [total_facts i] counts facts across all relations. *)
val total_facts : t -> int

(** [adom i] is the active domain: every value occurring in some fact,
    sorted, without duplicates. Memoized per instance value (the same
    order-on-demand pattern as {!Relation}'s sorted view): the scan over
    all relations runs at most once per instance, and every mutation
    ({!set}, {!add_fact}, {!remove_fact}, ...) yields a fresh instance
    whose memo is recomputed on first use. The scan walks interned ids
    and decodes each distinct id once, then sorts the values. *)
val adom : t -> Value.t list

(** [fold f i acc] folds over [(name, relation)] bindings in name order. *)
val fold : (string -> Relation.t -> 'a -> 'a) -> t -> 'a -> 'a

(** [map_values f i] applies a value renaming to every fact of every
    relation — the tool for mechanical genericity checks: a query [q] is
    generic iff [q (map_values f i) = map_values f (q i)] for bijective
    [f] fixing the query's constants. *)
val map_values : (Value.t -> Value.t) -> t -> t

(** [schema i] infers a schema from the non-empty relations. *)
val schema : t -> Schema.t

(** [pp] prints every relation as [name(v1, ..., vk).] fact lines, sorted —
    the same surface syntax {!parse_facts} reads. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string

(** [parse_facts text] reads fact lines of the form [pred(v, ...).]
    (trailing dot optional; [%] and [//] start comments; blank lines
    ignored). @raise Failure with a line number on malformed input,
    including a fact whose argument count disagrees with an earlier fact
    of the same predicate. *)
val parse_facts : string -> t
