(** Abstract syntax shared by the whole language family.

    One rule type covers every variant in the paper; each engine validates
    the fragment it implements via the [check_*] functions:

    - {b Datalog} (§3.1): single positive head literal, positive body.
    - {b Datalog¬} (§3.2–4.1): negative body literals allowed.
    - {b Datalog¬¬} (§4.2): negative head literals (retractions) allowed.
    - {b Datalog¬new} (§4.3): head-only variables allowed (value invention).
    - {b N-Datalog¬(¬)} (§5.1, Definition 5.1): multi-literal heads and
      (in)equality literals in bodies.
    - {b N-Datalog¬⊥} (§5.2): the inconsistency symbol ⊥ in heads. *)

open Relational

type term = Var of string | Cst of Value.t

type atom = { pred : string; args : term list }

(** Head literals. *)
type hlit =
  | HPos of atom  (** assert a fact *)
  | HNeg of atom  (** retract a fact (Datalog¬¬ / N-Datalog¬¬) *)
  | HBottom  (** ⊥: abandon the computation (N-Datalog¬⊥) *)

(** Body literals. *)
type blit =
  | BPos of atom  (** [R(u)] *)
  | BNeg of atom  (** [¬R(u)] *)
  | BEq of term * term  (** [s = t] (N-Datalog) *)
  | BNeq of term * term  (** [s ≠ t] (N-Datalog) *)

type rule = {
  head : hlit list;  (** nonempty; singleton for deterministic variants *)
  body : blit list;
  forall : string list;
      (** universally quantified body variables (N-Datalog¬∀, §5.2);
          empty for every other variant *)
}

type program = rule list

(** {1 Construction helpers} *)

val var : string -> term
val cst : Value.t -> term

(** [sym s] is [Cst (Sym s)] — the common case in examples. *)
val sym : string -> term

val int : int -> term
val atom : string -> term list -> atom

(** [rule head body] builds a deterministic rule with a single positive
    head. *)
val rule : atom -> blit list -> rule

(** [fact a] is a body-less rule. *)
val fact : atom -> rule

(** {1 Structural queries} *)

val atom_of_hlit : hlit -> atom option

(** [body_preds p]: predicate names occurring in bodies. *)
val body_preds : program -> string list

(** [idb p] is the set of intensional predicates (those in some head);
    [edb p] the extensional ones (in bodies only). Sorted, distinct. *)
val idb : program -> string list

val edb : program -> string list

(** [preds p] is all predicates of [sch(P)]. *)
val preds : program -> string list

(** [adom p] is the set of constants occurring in [p] (the paper's
    [adom(P)]). *)
val adom : program -> Value.t list

(** [rule_vars r] lists the variables of a rule, first occurrence order. *)
val rule_vars : rule -> string list

(** [body_vars r] lists variables occurring in any body literal (or bound
    by the rule's ∀-quantifier). *)
val body_vars : rule -> string list

(** [head_only_vars r] lists variables occurring in the head but in no body
    literal — the invented variables of Datalog¬new (and an error in every
    other variant). [forall]-quantified variables count as body binders. *)
val head_only_vars : rule -> string list

(** [positive_body_vars r] lists variables bound by a positive body atom or
    by an equality with a constant. *)
val positive_body_vars : rule -> string list

(** {1 Arity checking} *)

(** [infer_schema p] computes predicate arities used in [p].
    @raise Check_error on inconsistent arities. *)
val infer_schema : program -> Schema.t

(** [check_facts schema inst] checks that every predicate of [inst]
    that [schema] names has its arity there: the check a load of facts
    for a program passes before anything evaluates or stores them.
    @raise Check_error naming the first predicate, by name, that does
    not. *)
val check_facts : Schema.t -> Instance.t -> unit

(** {1 Fragment validation}

    Each check raises {!Check_error} with a readable message naming the rule
    and the violated condition. *)

exception Check_error of string

(** Safety in the paper's sense (Definitions 3.1 and §3.2): every head
    variable occurs in {e some} body literal, positive or negative.
    Variables not bound by a positive atom range over [adom(P, K)] at
    evaluation time. *)
val check_safe : rule -> unit

(** Pure Datalog: single positive head, positive body atoms only. *)
val check_datalog : program -> unit

(** Datalog¬: single positive head, body negation allowed, safe. *)
val check_datalog_neg : program -> unit

(** Datalog¬¬: single (possibly negative) head, safe. *)
val check_datalog_negneg : program -> unit

(** Datalog¬new: single positive head; body as Datalog¬; head-only
    variables permitted (they are the invented ones). *)
val check_invent : program -> unit

(** N-Datalog¬¬ (Definition 5.1): multi-literal heads, equalities in
    bodies; every head variable positively bound in the body; no ⊥. *)
val check_ndatalog : program -> unit

(** N-Datalog¬: as [check_ndatalog] but no negative head literals. *)
val check_ndatalog_pos_heads : program -> unit

(** N-Datalog¬⊥: as [check_ndatalog] plus ⊥ heads allowed. *)
val check_ndatalog_bottom : program -> unit

(** N-Datalog¬∀: positive heads, [forall] quantifiers allowed. *)
val check_ndatalog_forall : program -> unit

(** The whole nondeterministic superset: multi-literal heads, retraction
    heads, ⊥, ∀ and (in)equalities all allowed (the union of the N-Datalog
    fragments — what a front end should accept before dispatching). *)
val check_ndatalog_any : program -> unit

(** [is_stratifiable_syntax p]: true iff no head literal is negative, no ⊥,
    single heads — i.e. [p] is plain Datalog¬ syntax. *)
val is_datalog_neg_syntax : program -> bool

(** {1 Substitution} *)

type subst = (string * Value.t) list

(** [ground_atom s a] instantiates an atom; @raise Check_error if a variable
    is unbound. *)
val ground_atom : subst -> atom -> string * Tuple.t
