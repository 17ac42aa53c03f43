(** Fixpoint logics: FO + IFP (inflationary fixpoint) and FO + PFP
    (partial fixpoint), with the nondeterministic witness operator [W]
    of §5.2 of the paper ([14]).

    These are the logic-side counterparts of the rule languages:

    - FO + IFP = fixpoint queries = inflationary Datalog¬ (Theorem 4.2);
    - FO + PFP = while queries = Datalog¬¬;
    - FO + IFP + W ≡ N-Datalog¬∀ ≡ N-Datalog¬⊥ (ndb-ptime, Theorem 5.6);
    - FO + PFP + W ≡ N-Datalog¬¬ (ndb-pspace, Theorem 5.3).

    Syntax extends {!Relational.Fo}-style formulas with
    [[IFP_{R, x̄} φ](t̄)] / [[PFP_{R, x̄} φ](t̄)] — the relation variable
    [R] of arity [|x̄|] may occur in [φ]; the operator denotes the
    (inflationary / partial) fixpoint of [J ↦ J ∪ φ(J)] (resp.
    [J ↦ φ(J)]) applied to the tuple [t̄] — and with [W x̄ φ]: for each
    valuation of [φ]'s remaining free variables, {e one} satisfying
    valuation of [x̄] is chosen nondeterministically (none if
    unsatisfiable); [W x̄ φ] holds exactly of the selected
    valuations, so the witness variables stay free in the formula.

    {b Evaluation} compiles to {!Relational.Algebra} plans: each
    non-parameterized IFP/PFP subterm is iterated to its fixpoint
    relation with its body compiled once via {!Relational.Fo.compile}
    and executed per round ([fp.rounds] counts rounds); bodies whose
    recursive relation occurs only under ∧/∨/∃ iterate {e
    semi-naively} — one delta derivative per occurrence of the
    relation, run one after another. Formulas the lowering cannot
    handle — [W], parameterized fixpoints (body free
    variables beyond the column variables), a nested fixpoint reading an
    enclosing fixpoint's relation — fall back to the naive enumerators,
    which survive as [eval_naive] / [sentence_naive] reference oracles
    (the fallback ticks the [fp.fallback] counter). Relation names
    starting with ["fp#"] are reserved by the compiled path.

    The partial fixpoint is undefined when the stage sequence cycles
    without converging (the flip-flop); evaluation reports this as
    {!Undefined}. Witness choices are resolved by a seeded deterministic
    policy, and [outcomes] enumerates every choice function (exponential,
    capped). *)

open Relational

type term = Var of string | Cst of Value.t

type formula =
  | True
  | False
  | Atom of string * term list
      (** database relation or fixpoint-bound relation variable *)
  | Eq of term * term
  | Not of formula
  | And of formula * formula
  | Or of formula * formula
  | Implies of formula * formula
  | Exists of string list * formula
  | Forall of string list * formula
  | Ifp of fp * term list  (** [[IFP_{R,x̄} φ](t̄)] *)
  | Pfp of fp * term list  (** [[PFP_{R,x̄} φ](t̄)] *)
  | Witness of string list * formula  (** [W x̄ φ] *)

and fp = {
  rel : string;  (** bound relation variable *)
  vars : string list;  (** its column variables x̄ *)
  body : formula;
}

exception Undefined of string
(** a PFP subterm cycled without converging *)

exception Type_error of string

(** [free_vars f] — the fixpoint column variables [x̄] are bound inside
    fixpoint bodies; [W]'s variables stay free (see above). Shares
    {!Relational.Fo.collect_free_vars} with the FO layer. *)
val free_vars : formula -> string list

(** [constants f] lists the constants mentioned by [f], sorted. *)
val constants : formula -> Value.t list

(** A choice policy resolves witness selections: given the call-site id,
    the outer valuation, and the (non-empty, sorted) candidate tuples,
    pick one. *)
type policy = int -> Value.t list -> Tuple.t list -> Tuple.t

(** [seeded_policy seed] — deterministic pseudo-random pick. *)
val seeded_policy : int -> policy

(** [eval ?policy ?trace inst f vars] evaluates [f] with output columns
    [vars] over the active domain of [inst] (plus [f]'s constants),
    through the compiled path where possible (see above). Without
    [Witness] subformulas the result is deterministic and [policy] is
    irrelevant (default: always the smallest candidate, a deterministic
    skolemization).
    @raise Undefined on diverging PFP
    @raise Type_error on arity mismatches
    @raise Invalid_argument listing {e all} free variables missing from
    [vars] *)
val eval :
  ?policy:policy ->
  ?trace:Observe.Trace.ctx ->
  Instance.t ->
  formula ->
  string list ->
  Relation.t

(** [eval_naive] — the pre-compilation active-domain enumerator, kept as
    the reference oracle for the compiled path. *)
val eval_naive :
  ?policy:policy -> Instance.t -> formula -> string list -> Relation.t

(** [sentence ?policy ?trace inst f] decides a closed formula.
    @raise Invalid_argument listing all free variables if [f] is open. *)
val sentence :
  ?policy:policy -> ?trace:Observe.Trace.ctx -> Instance.t -> formula -> bool

(** [sentence_naive] — reference oracle for {!sentence}. *)
val sentence_naive : ?policy:policy -> Instance.t -> formula -> bool

(** [outcomes ?max_outcomes inst f vars] enumerates the results of [eval]
    over {e all} choice functions, deduplicated (default cap 10_000
    policies explored — @raise Failure beyond). Without [W] this is a
    singleton. *)
val outcomes :
  ?max_outcomes:int -> Instance.t -> formula -> string list -> Relation.t list

(** Convenience constructors mirroring the paper's notation. *)
val ifp : rel:string -> vars:string list -> formula -> term list -> formula

val pfp : rel:string -> vars:string list -> formula -> term list -> formula
val atom : string -> string list -> formula

val pp : Format.formatter -> formula -> unit
