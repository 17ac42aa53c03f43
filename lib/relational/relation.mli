(** Relation instances: finite sets of constant tuples of a fixed arity.

    A relation is an immutable flat value: a frozen {!Tuple.Set} of its
    tuples. Membership ({!mem}, {!mem_ids}) is one probe of the set,
    which allocates nothing. The unordered enumerations
    ({!unordered_fold}, {!unordered_iter}) and index builds walk the
    set's own order, the order the value was built in (for a relation
    from the fact loader, load order): it follows allocation order
    where the set's slots follow the hash, and walking it builds
    social-ingest's join indexes about three times faster than walking
    the slots. Every observer that can leak an order — {!to_list},
    {!elements}, {!fold}, {!iter}, {!pp} — reads an order-on-demand
    sorted view ({!Tuple.compare} order, memoized per relation value;
    built by {!Tuple.rank_sort}, so each distinct value is decoded once
    per sort), so printed output and enumeration order are identical to
    the former [Set.Make (Tuple)] representation.

    Every operation that returns a new relation builds it in one pass
    and shares nothing mutable with its operands. {!add} and {!remove}
    copy the whole set, so each costs O(n): they are for one-off edits.
    To build a relation from many tuples, collect them and call
    {!of_list} (or {!of_distinct} when they are distinct); to apply many
    edits to a predicate, write them through a [Matcher.Db], whose sets
    are mutable, and publish once with [Db.relation] or [Db.instance].
    {!union} copies the larger operand's set and adds the smaller's
    tuples.

    All operations enforce arity homogeneity: inserting a tuple of a
    different arity than the existing ones raises
    [Invalid_argument]. The empty relation is compatible with any arity. *)

type t

(** The empty relation. *)
val empty : t

(** [singleton t] contains exactly [t]. *)
val singleton : Tuple.t -> t

(** [of_list ts] builds a relation in one pass, dropping repeated
    tuples. @raise Invalid_argument on mixed arities. *)
val of_list : Tuple.t list -> t

(** [of_distinct ts] builds a relation from tuples the caller guarantees
    pairwise distinct (the semi-naive delta contract), in their order.
    @raise Invalid_argument on mixed arities or a repeated tuple. *)
val of_distinct : Tuple.t list -> t

(** [of_set set] is the relation of [set]'s tuples, as the fact loader
    ({!Instance.parse_facts}) hands it over, or as [Matcher.Db]
    publishes a predicate: its tuples of one arity. Nothing is copied:
    the relation takes [set] over (settling its order, {!Tuple.Set.settle}),
    and the caller must not write to it afterwards (a Db copies it
    first). *)
val of_set : Tuple.Set.t -> t

(** [set r] is [r]'s set, shared, not copied: a reader may probe and
    walk it, but must copy it before writing (as [Matcher.Db] does when
    it adopts a relation). *)
val set : t -> Tuple.Set.t

(** [of_rows rows] builds a relation from value-list rows. *)
val of_rows : Value.t list list -> t

val to_list : t -> Tuple.t list

(** [add t r] inserts a tuple: O(n), a copy of the set (see above).
    @raise Invalid_argument on arity mismatch. *)
val add : Tuple.t -> t -> t

(** [remove t r] deletes a tuple (no-op if absent): O(n), a copy of the
    set. *)
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

(** [unordered_fold] / [unordered_iter] enumerate the tuples in the
    set's order (build order, unspecified to callers), without forcing the sorted view — for
    internal order-insensitive consumers (index building, bulk
    absorption) on the hot path. Do not use where enumeration order can
    reach output. *)
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

(** {1 Join indexes}

    The one join index of the engines: [Algebra]'s hash joins (through
    the memo of {!index}), [Matcher.Db]'s maintained indexes and the
    per-round delta indexes of the rule engines. *)

(** A mutable hash index of tuples on a column set: key -> the bucket
    of tuples carrying it. Its shape follows from the columns: a
    one-column key is the id itself and a two-column key the pair
    packed into one int ({!Tuple.pack2}), both in a {!Tuple.ITbl}, so
    neither a build nor a probe allocates a key; any other column set
    (three or more columns, or the empty one, whose single bucket holds
    every tuple) keys a {!Tuple.KTbl} by the id vector.

    A bucket is a growable vector of its tuples, read in place
    ({!iter}, {!size}): newest first while only {!add}s reached it,
    in any order after a {!remove}. {!add} is one table probe and a
    push (amortized O(1)). {!remove} scans the bucket for the tuple
    itself, by physical identity, and moves the last tuple into its
    slot: O(bucket) reads and one move. Tuples that fill under a
    quarter of the vector are copied into one twice their number, and
    an emptied bucket is dropped, so a removal allocates only when it
    shrinks its bucket. A bucket must not be read while its index is
    written. *)
module Index : sig
  type relation := t
  type t

  (** The tuples of one key. *)
  type bucket

  (** [of_relation r cols] indexes [r] on [cols], sized for [r]'s
      cardinality. Unmemoized: see {!index}. *)
  val of_relation : relation -> int array -> t

  (** [of_set cols s] indexes the tuples of [s] on [cols], in [s]'s
      order, sized for their number. *)
  val of_set : int array -> Tuple.Set.t -> t

  (** [add ix t] pushes [t] onto its key's bucket. The caller keeps the
      indexed tuples distinct. *)
  val add : t -> Tuple.t -> unit

  (** [remove ix t] drops [t] from its bucket (a no-op when the bucket
      does not hold [t] itself: pass the tuple that was added, as
      [Tuple.Set.remove] returns it), and the bucket when it empties. *)
  val remove : t -> Tuple.t -> unit

  (** [find ix key] is the bucket of the key whose component on the
      index's [j]-th column is the id [key j]; an empty bucket when there
      is none. A packed index calls [key] once or twice and builds
      nothing. *)
  val find : t -> (int -> int) -> bucket

  (** [lookup ix cols t] is the bucket of [t]'s projection on [cols]
      (as many columns as the index has). *)
  val lookup : t -> int array -> Tuple.t -> bucket

  (** [size b] is the number of tuples in [b]: O(1). *)
  val size : bucket -> int

  (** [iter f b] calls [f] on [b]'s tuples, in the bucket's order. *)
  val iter : (Tuple.t -> unit) -> bucket -> unit

  (** [to_list b] is [b]'s tuples, in the order {!iter} reads them, in a
      fresh list. *)
  val to_list : bucket -> Tuple.t list
end

(** [index ?trace r cols] is [r]'s memoized index on [cols]. The first
    request for a relation value and column set only marks it and
    answers [None]; the second builds the index ([ra.index.builds]) and
    every later one reuses it ([ra.index.hits]). Updates return new
    values without memos, so an index never goes stale. Safe to call
    from several domains on a shared value. *)
val index : ?trace:Observe.Trace.ctx -> t -> int array -> Index.t option

(** [pp] prints [{(v1, v2), ...}] in a [hov] box, each tuple one
    Format token ({!Tuple.pp}), [",@ "] between tuples. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
