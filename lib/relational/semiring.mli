(** Commutative semirings for annotated evaluation ("Revisiting
    Semiring Provenance for Datalog", arXiv 2202.10766): a fact's
    annotation combines alternative derivations with ⊕ and the body
    facts of one firing with ⊗.

    The Boolean set semantics never routes through this module — the
    existing engines {e are} the monomorphized Bool instance — so the
    hot path cannot regress; [Bool] exists here for cross-checking the
    annotated evaluator against them. *)

(** The four shipped instances. *)
type tag =
  | Bool  (** (bool, ∨, ∧) — set semantics *)
  | Count  (** (ℕ∞, +, ×) — derivation-tree multiplicities, ω-saturating *)
  | MinPlus  (** (ℕ∞, min, +) — tropical: lightest-derivation weight *)
  | Why  (** bounded why-provenance polynomials over base facts *)

(** Valid [--annot] spellings, in display order. *)
val names : string list

val name_of : tag -> string

(** [of_string s] parses an annotation name; [Error msg] carries the
    valid spellings for the CLI's exit-2 diagnostic. *)
val of_string : string -> (tag, string) result

type why = private { monos : string list list; more : bool }
(** A bounded polynomial: monomials are duplicate-free sorted sets of
    base-fact labels, listed in (length, lex) order; [more] records
    that the bounds dropped monomials, so the list is a prefix of the
    true polynomial. *)

(** The universal annotation value. [C] saturates at {!omega}; [W]
    uses [max_int] as +∞ (no derivation) and [min_int] as −∞
    (diverging weight, e.g. a negative-weight cycle). *)
type v = B of bool | C of int | W of int | P of why

val omega : int
val minplus_zero : int
val minplus_bottom : int

(** One instance's operations. [plus]/[times]
    @raise Invalid_argument when handed values of another instance. *)
type t = {
  tag : tag;
  zero : v;
  one : v;
  plus : v -> v -> v;
  times : v -> v -> v;
}

val get : tag -> t

(** The absorbing value the stabilization check forces on facts still
    changing past the round bound (ω / −∞ / truncated-only). *)
val top : tag -> v

val equal_v : v -> v -> bool

(** a ⊕ a = a: decides whether the annotation fixpoint may use the
    inflationary [old ⊕ new] update (Count may not — + double-counts). *)
val is_idempotent : tag -> bool

(** [label ~pred vals] renders a base fact as it appears inside
    why-provenance monomials: ["G(a, b)"]. *)
val label : pred:string -> Value.t list -> string

(** Base-fact annotation: [1] everywhere except MinPlus, which reads
    the fact's weight from its last column when it is an [Int] (rules
    thread weight columns as ordinary data), and Why, which introduces
    the fact's own variable. *)
val of_edb : tag -> pred:string -> Tuple.t -> v

val to_string : v -> string
val pp : Format.formatter -> v -> unit
