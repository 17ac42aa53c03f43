(** Domain values.

    The paper assumes an infinite set [dom] of constants. We realize it as
    integers, strings and symbols, plus a distinguished countable supply of
    {e invented} values used by Datalog¬new (Section 4.3 of the paper):
    invented values are created during evaluation, are distinct from all
    input constants, and are never allowed in final answers of safe
    programs. *)

type t =
  | Int of int        (** integer constant *)
  | Str of string     (** string constant, e.g. ["alice"] *)
  | Sym of string     (** symbolic constant, e.g. [a], [b] in the paper *)
  | New of int        (** invented value #n (Datalog¬new only) *)

(** Total order on values. Invented values sort after all constants so that
    answers over the input domain are stable under invention. *)
val compare : t -> t -> int

val equal : t -> t -> bool

(** Structural hash, allocation-free: tag and payload are mixed directly
    instead of boxing a [(tag, payload)] tuple per call. *)
val hash : t -> int

(** [is_invented v] is [true] iff [v] was created by value invention. *)
val is_invented : t -> bool

(** [int n], [str s], [sym s] are construction shorthands. *)
val int : int -> t

val str : string -> t
val sym : string -> t

(** {1 Rendering}

    One renderer writes values into a [Buffer.t]; every value and fact
    printer of the relational and Datalog layers goes through it. It has
    two dialects:
    - [Fact], the fact-file syntax {!Instance.parse_facts} reads back:
      integers in decimal, strings as OCaml's [%S] prints them ([String.escaped]
      between double quotes), symbols bare, invented values as [ν42].
      A symbol whose bare text would not read back as itself is quoted
      as in [Term]: the empty symbol, an integer literal (['42']), one
      with a blank at either edge or a leading quote, and one holding a
      comma, a dot, a double quote, a parenthesis, [%], [//] or a line
      break;
    - [Term], the program-term syntax of [Datalog.Pretty]: like [Fact],
      except that a symbol that is not a lower identifier
      ([[a-z][a-zA-Z0-9_]*]) is single-quoted, with a backslash before
      each quote or backslash inside it, and an invented value prints
      as ['ν42'].

    Both dialects reload through the fact loader ({!parse}) to the same
    values, apart from invented values, which reload as symbols. *)

type dialect = Fact | Term

(** [render dialect b v] appends [v] to [b]. *)
val render : dialect -> Buffer.t -> t -> unit

(** [to_string_in dialect v] is [v] rendered alone. *)
val to_string_in : dialect -> t -> string

(** [to_string v] is [to_string_in Fact v]. *)
val to_string : t -> string

(** [pp] prints {!to_string}'s bytes as one Format token. *)
val pp : Format.formatter -> t -> unit

(** [parse s] reads a value back from its surface syntax: an integer literal,
    a quoted string, a quoted symbol (['...'], a backslash before a quote
    or a backslash standing for that character), or a bare symbol.
    Inverse of [to_string_in Term] and of [to_string] for non-invented
    values. Integer literals follow the program lexer's
    grammar, [-?[0-9]+]; anything else unquoted ([0x1F], [1_000], [+5])
    is a symbol.
    @raise Invalid_argument on the empty string, on an integer literal
    outside the native int range, and on malformed string literals — an
    input starting with ['"'] must be a complete quoted literal with
    nothing after the closing quote (["ab"cd] is rejected, not truncated
    to [ab]) — and likewise on malformed quoted symbols. *)
val parse : string -> t

(** Process-wide value interning: every constant that enters the
    relational layer (through {!Tuple.make} and friends) is mapped to a
    dense integer id. Tuples store ids, so membership, join keys and
    deduplication reduce to machine-integer comparisons; the value itself
    is recovered with {!Intern.of_id} only at the boundaries
    (pretty-printing, substitutions handed back to engines).

    Ids are allocated in first-intern order and never recycled; they are
    {e not} ordered like values — use {!Intern.compare_ids} (or decode)
    whenever value order matters.

    The table is domain-safe: [id] serializes writers behind a mutex,
    while [of_id] / [compare_ids] / [size] are lock-free readers over an
    immutable snapshot array, so parallel evaluation workers can decode
    and compare freely while first-interns proceed. *)
module Intern : sig
  type value := t

  (** [id v] is the dense id of [v], interning it on first sight.
      Idempotent: equal values always receive the same id. *)
  val id : value -> int

  (** [of_id i] recovers the value interned as [i].
      @raise Invalid_argument on ids never returned by {!id}. *)
  val of_id : int -> value

  (** [compare_ids a b] orders two ids by {!Value.compare} on the values
      they denote (equal ids short-circuit without decoding). *)
  val compare_ids : int -> int -> int

  (** [size ()] is the number of distinct values interned so far. *)
  val size : unit -> int

  (** [decode_distinct iter] is the sorted ({!Value.compare}), duplicate-free
      list of the values denoted by the ids [iter] passes to its callback.
      Each distinct id is decoded once: a byte set over the interned ids
      marks the ones already met. *)
  val decode_distinct : ((int -> unit) -> unit) -> value list

  (** [hits ()] counts [id] calls that found an existing entry — the
      intern table's hit counter for the observability layer. *)
  val hits : unit -> int

  (** [add_hits n] counts [n] resolutions to an existing entry that a
      caller answered from its own cache instead of calling [id] (the
      fact loader's per-load token cache), so {!hits} keeps counting
      every token that resolved to an already-interned value. *)
  val add_hits : int -> unit
end

(** A fresh-value source for Datalog¬new. Counters are independent; the
    engine threads one through a computation so invented values never
    collide with each other. Invented values are guaranteed distinct from
    all constants by construction (they live in their own branch of [t]). *)
module Gen : sig
  type value := t
  type t

  (** [create ()] is a fresh source starting at [ν0]. *)
  val create : unit -> t

  (** [fresh g] returns the next invented value. *)
  val fresh : t -> value

  (** [count g] is the number of values invented so far. *)
  val count : t -> int
end
