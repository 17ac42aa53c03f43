(** Constant tuples.

    A tuple is one immutable flat array: the interned value ids of its
    components (see {!Value.Intern}) plus their precomputed hash, in the
    last slot — [[| id0; ...; id(k-1); hash |]], one heap block of
    [k + 2] words with its header. Positions play the role of attributes
    (the paper's named perspective is recovered by {!Schema} which maps
    attribute names to positions). Equality and hashing never walk the
    constants' structure; components are decoded back to {!Value.t} only
    on demand. *)

type t

(** [make vs] creates a tuple from an array of values, interning each
    component. Later mutation of [vs] does not affect the tuple. *)
val make : Value.t array -> t

(** [of_list vs] creates a tuple from a list of values. *)
val of_list : Value.t list -> t

val to_list : t -> Value.t list

(** [arity t] is the number of components. *)
val arity : t -> int

(** [get t i] is the [i]-th component (0-based), decoded.
    @raise Invalid_argument if [i] is out of bounds. *)
val get : t -> int -> Value.t

(** {1 Interned view} — the relational core's fast path. *)

(** [of_ids ids] builds a tuple directly from interned ids, in one
    allocation. It copies [ids]: the caller keeps its array and may
    reuse it (the engines pass their scratch buffers). Every entry must
    have been returned by {!Value.Intern.id}. *)
val of_ids : int array -> t

(** [of_prefix ids n] is [of_ids (Array.sub ids 0 n)], in one
    allocation.
    @raise Invalid_argument if [n] is not in [0 .. Array.length ids]. *)
val of_prefix : int array -> int -> t

(** [of_hashed ids h] is [of_ids ids] when [h = hash_ids ids], which it
    does not compute again: for a caller that has just probed a set
    with that hash ({!Set.mem_hashed}). *)
val of_hashed : int array -> int -> t

(** [ids t] is a fresh copy of the components' ids: one allocation per
    call, so the engines' hot paths read positions in place ({!id},
    {!unsafe_id}, {!Set.mem_tuple}) instead. *)
val ids : t -> int array

(** [id t i] is the interned id of the [i]-th component.
    @raise Invalid_argument if [i] is out of bounds. *)
val id : t -> int -> int

(** [unsafe_id t i] is {!id} without the bounds check, for join loops
    that have checked the arity; [i] must be in [0 .. arity t - 1]. *)
val unsafe_id : t -> int -> int

(** [hash_ids ids] is the hash a tuple built from [ids] would carry —
    for probing hashed containers without constructing the tuple. *)
val hash_ids : int array -> int

(** {1 Sets of tuples} *)

(** A mutable set of tuples, flat: linear probing over one array of
    tuples, with one shared sentinel marking the free slots. The engines'
    membership and dedup sets (the fact loader's, [Matcher.Db]'s, the
    semi-naive rounds', DRed's) are all of this kind.

    - The array is at most half full: {!add} doubles it before it would
      pass one half, so a probe run stays short and always ends.
    - A lookup takes an id vector ({!mem}, {!find_opt}: a matcher's
      scratch array, no tuple built) or a tuple ({!mem_tuple}, {!add},
      {!remove}: by the hash it carries, never recomputed). It compares
      each stored tuple's hash before its ids, both read from the stored
      tuple's one block, and allocates nothing.
    - {!remove} shifts the rest of the probe run back into the freed
      slot, so there are no tombstones: a set that shrinks probes as
      fast as one that never held the removed tuples.
    - Reads ({!mem}, {!find_opt}, {!length}) may run on several domains
      at once, but only while no domain writes ({!add}, {!remove}). *)
module Set : sig
  type tuple := t
  type t

  (** [create n] is an empty set with room for [n] tuples before it
      grows. *)
  val create : int -> t

  (** The number of tuples held. *)
  val length : t -> int

  (** [mem s ids] tests whether [s] holds the tuple with id vector
      [ids]. *)
  val mem : t -> int array -> bool

  (** [find_opt s ids] is the tuple of [s] with id vector [ids]. *)
  val find_opt : t -> int array -> tuple option

  (** [mem_hashed s ids h] is [mem s ids] when [h = hash_ids ids]. *)
  val mem_hashed : t -> int array -> int -> bool

  (** [mem_tuple s x] tests whether [s] holds a tuple with [x]'s ids. *)
  val mem_tuple : t -> tuple -> bool

  (** [add s x] inserts [x] unless [s] holds a tuple with its ids, in one
      probe. It is [true] when [x] was new. *)
  val add : t -> tuple -> bool

  (** [remove s x] drops the tuple with [x]'s ids. It is [true] when
      there was one. *)
  val remove : t -> tuple -> bool

  (** [copy s] is an independent set with the same tuples (one array
      copy; the tuples themselves are shared, being immutable). *)
  val copy : t -> t

  (** [iter f s] calls [f] on every tuple of [s], in slot order. *)
  val iter : (tuple -> unit) -> t -> unit
end

(** {1 Id-keyed tables} *)

(** Hash tables keyed by id vectors, hashed like {!hash_ids} — for keys
    that are not the tuples themselves (join keys of three or more
    columns, projected valuations, annotations). *)
module KTbl : Hashtbl.S with type key = int array

(** Hash tables keyed by one int: a single id, or two ids packed by
    {!pack2}. *)
module ITbl : Hashtbl.S with type key = int

(** [can_pack] holds on hosts whose ints fit two ids ({!pack2}). *)
val can_pack : bool

(** [pack2 a b] packs two ids into one int, reversibly when
    {!can_pack}; [unpack2] recovers them as an id array. *)
val pack2 : int -> int -> int

val unpack2 : int -> int array

(** Lexicographic {!Value.compare} order; tuples of different arities are
    ordered by arity first so that mixed sets behave sanely. *)
val compare : t -> t -> int

(** Component-wise id equality — O(arity) int compares, hash-gated. *)
val equal : t -> t -> bool

(** The precomputed hash, [hash_ids] of the ids (a read of the last
    slot). *)
val hash : t -> int

(** [project t cols] keeps components at positions [cols], in that order
    (repetition allowed). *)
val project : t -> int list -> t

(** [concat a b] juxtaposes two tuples. *)
val concat : t -> t -> t

(** [values t] decodes the components into a fresh array. *)
val values : t -> Value.t array

(** [exists p t] tests whether some component satisfies [p]. *)
val exists : (Value.t -> bool) -> t -> bool

(** [rename t perm] reorders: component [i] of the result is component
    [perm.(i)] of [t]. *)
val rename : t -> int array -> t

(** {1 Sorting} *)

(** [rank_sort ar get xs] sorts [xs], whose elements each have [ar]
    components read in place by [get x c] (an interned id), in
    lexicographic {!Value.compare} order — {!compare}'s order — equal
    elements keeping their input order. Each distinct id is decoded and
    ranked once per call; the sort then compares integers. The cost
    follows the length of [xs], not the size of the intern table.
    [rank_sort (arity t) unsafe_id] sorts tuples of one arity,
    [rank_sort n Array.get] id vectors of length [n]. *)
val rank_sort : int -> ('a -> int -> int) -> 'a list -> 'a list

(** {1 Rendering} — through {!Value.render}. *)

(** [render_fact dialect b pred t] appends [pred(v1, ..., vk).]. *)
val render_fact : Value.dialect -> Buffer.t -> string -> t -> unit

(** [fact_to_string dialect pred t] is that fact alone. *)
val fact_to_string : Value.dialect -> string -> t -> string

(** [to_string t] is [(v1, ..., vk)] in the fact-file dialect; [pp]
    prints it as one Format token. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit
