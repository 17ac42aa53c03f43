(** Relation instances: finite sets of constant tuples of a fixed arity.

    Backed by a persistent hash trie keyed on the tuples' cached hashes
    (see {!Tuple}): membership, insertion and set algebra cost integer
    comparisons, never structural walks over values. Every observer that
    can leak an order — {!to_list}, {!elements}, {!fold}, {!iter},
    {!pp} — reads an order-on-demand sorted view ({!Tuple.compare}
    order, memoized per relation value), so printed output and
    enumeration order are identical to the former [Set.Make (Tuple)]
    representation.

    All operations enforce arity homogeneity: inserting a tuple of a
    different arity than the existing ones raises
    [Invalid_argument]. The empty relation is compatible with any arity. *)

type t

(** The empty relation. *)
val empty : t

(** [singleton t] contains exactly [t]. *)
val singleton : Tuple.t -> t

(** [of_list ts] builds a relation.
    @raise Invalid_argument on mixed arities. *)
val of_list : Tuple.t list -> t

(** [of_distinct ts] builds a relation from tuples the caller guarantees
    pairwise distinct (the semi-naive delta contract). Bulk-constructs
    the backing trie in one pass — O(n) allocation instead of one
    root-to-leaf path copy per insertion.
    @raise Invalid_argument on mixed arities. *)
val of_distinct : Tuple.t list -> t

(** [of_rows rows] builds a relation from value-list rows. *)
val of_rows : Value.t list list -> t

val to_list : t -> Tuple.t list

(** [add t r] inserts a tuple. @raise Invalid_argument on arity mismatch. *)
val add : Tuple.t -> t -> t

(** [add_all ts r] inserts all tuples of [ts] — one homogeneity sweep for
    the batch, then constant-time hash inserts.
    @raise Invalid_argument on arity mismatch. *)
val add_all : Tuple.t list -> t -> t

(** [remove t r] deletes a tuple (no-op if absent). *)
val remove : Tuple.t -> t -> t

val mem : Tuple.t -> t -> bool

(** [mem_ids ids r] is membership for the tuple an id array denotes,
    without constructing it — the fixpoint engines' duplicate probe. *)
val mem_ids : int array -> t -> bool
val cardinal : t -> int
val is_empty : t -> bool

(** [arity r] is [Some a] if [r] is non-empty with tuples of arity [a],
    [None] if empty. *)
val arity : t -> int option

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

(** [subset a b] tests whether every tuple of [a] is in [b]. *)
val subset : t -> t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int
val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Tuple.t -> unit) -> t -> unit

(** [unordered_fold] / [unordered_iter] enumerate in unspecified (hash
    trie) order without forcing the sorted view — for internal
    order-insensitive consumers (index building, bulk absorption) on the
    hot path. Do not use where enumeration order can reach output. *)
val unordered_fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a

val unordered_iter : (Tuple.t -> unit) -> t -> unit
val filter : (Tuple.t -> bool) -> t -> t
val exists : (Tuple.t -> bool) -> t -> bool
val for_all : (Tuple.t -> bool) -> t -> bool

(** [map f r] applies a tuple transformer; the results must again be
    homogeneous. *)
val map : (Tuple.t -> Tuple.t) -> t -> t

val elements : t -> Tuple.t list
val choose_opt : t -> Tuple.t option

(** [iter_ids f r] calls [f] on the interned id of every component of
    every tuple of [r], in unspecified order and with repeats. *)
val iter_ids : (int -> unit) -> t -> unit

(** [values r] is the set of all values occurring in [r] (its active
    domain), as a sorted list without duplicates. Computed on ids: each
    distinct id is decoded once ({!Value.Intern.decode_distinct}). *)
val values : t -> Value.t list

(** {1 Join indexes} *)

(** A hash index of a relation on a column set: key -> the tuples
    carrying it. *)
type index

(** [build_index r cols] indexes [r] on [cols], unmemoized. *)
val build_index : t -> int array -> index

(** [lookup idx cols t] is the indexed tuples whose key equals [t]'s
    projection on [cols] (same length as the index's columns). Apply it
    to [idx] and [cols] once, outside a probe loop. *)
val lookup : index -> int array -> Tuple.t -> Tuple.t list

(** [index ?trace r cols] is [r]'s memoized index on [cols]. The first
    request for a relation value and column set only marks it and
    answers [None]; the second builds the index ([ra.index.builds]) and
    every later one reuses it ([ra.index.hits]). Updates return new
    values without memos, so an index never goes stale. Safe to call
    from several domains on a shared value. *)
val index : ?trace:Observe.Trace.ctx -> t -> int array -> index option

val pp : Format.formatter -> t -> unit
val to_string : t -> string
