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

(** [iter_facts f i] calls [f name t] on every fact, relations in name
    order and each relation's tuples in its sorted view. *)
val iter_facts : (string -> Tuple.t -> unit) -> t -> unit

(** [pp] prints every relation as [name(v1, ..., vk).] fact lines, sorted —
    the same surface syntax {!parse_facts} reads. Each fact is rendered by
    {!Tuple.render_fact} in the [Fact] dialect and printed as one Format
    token, with a forced newline ([@\n]) between facts. *)
val pp : Format.formatter -> t -> unit

(** [to_string i] is {!pp}'s output: the facts joined by newlines. *)
val to_string : t -> string

(** [parse_facts text] reads fact lines of the form [pred(v, ...).]
    (trailing dot optional; [%] and [//] start comments; blank lines
    ignored; a fact may span lines). An argument is an integer, a quoted
    string, a quoted symbol (['Abc'], the program-term syntax of
    {!Value.render}'s [Term] dialect) or a bare symbol. A single quote
    opens a quoted symbol only where an argument starts (after [(] or
    [,]); elsewhere it is an ordinary byte of a bare token. Inside a
    quoted string or symbol a [,] splits no arguments, a [.] ends no
    fact, [%] and [//] start no comment, and a backslash escapes the
    next character, so every value {!pp} prints in a string, and every
    value [Term] prints, reads back unchanged (symbols {!pp} prints bare:
    one holding a [,], a [.], a double quote, [%] or [//], or starting
    with a quote, does not).

    One pass over the bytes: facts and arguments are cut as spans of
    [text], each distinct token is parsed and interned once (a per-load
    cache; its hits count into [Value.Intern.hits]), and each
    predicate's facts are deduplicated into one table from id vectors
    to tuples. The relations are built with {!Relation.of_loaded}: they
    keep those rows and that table and build no trie until a trie
    operation needs one, and [Matcher.Db] adopts the table as the
    predicate's membership set.

    @raise Failure with a line number on malformed input — the line of
    the fact's closing dot, or of the last character of an unterminated
    last fact — including a fact whose argument count disagrees with an
    earlier fact of the same predicate. *)
val parse_facts : string -> t
