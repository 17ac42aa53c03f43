(** Semiring-annotated evaluation of positive Datalog programs
    ("Revisiting Semiring Provenance for Datalog", arXiv 2202.10766).

    The annotated fixpoint is computed in two phases. Phase one runs the
    untouched Boolean engines: for the positive semirings shipped here a
    fact's annotation is non-zero exactly when the fact is in the set
    fixpoint, so the support is the ordinary semi-naive result (parallel
    and all). Phase two materializes the derivation graph once — every
    (rule, body valuation) firing over the fixed universe, via
    {!Matcher.iter_derivations} — and iterates annotations over it:

    - [Bool]: every support fact is [true]; no iteration.
    - [Count]: exact, non-iterative. Facts whose every deriving firing
      completes are evaluated in one topological (Kahn) pass; the rest —
      facts on or downstream of a support cycle, which have infinitely
      many derivation trees — are ω.
    - [MinPlus], [Why]: Kleene iteration with a stabilization bound;
      facts still changing past the bound (a negative-weight cycle, a
      pathological truncation chain) are forced to {!Semiring.top} —
      the absorption check that makes the non-Boolean fixpoints
      terminate.

    The annotation phase is sequential by design: when the session runs
    with jobs > 1, phase one still parallelizes but phase two counts
    [annot.par.fallbacks] — the explicit fallback at the sharded
    exchange boundary. *)

open Relational

exception Unsupported of string
(** Raised when the program leaves the positive fragment (negation,
    retraction heads, ⊥, ∀) — those have no K-relation semantics for
    the semirings shipped here. *)

type stats = {
  universe : int;  (** facts in the support (the Boolean fixpoint) *)
  derivations : int;  (** firings in the materialized derivation graph *)
  rounds : int;  (** annotation iteration rounds (0 = non-iterative) *)
  forced : int;  (** facts forced to {!Semiring.top} by stabilization *)
  infinite : int;  (** Count: facts with infinitely many derivations *)
  stages : int;  (** Boolean fixpoint stages (phase one) *)
}

type t = {
  sr : Semiring.t;
  instance : Instance.t;  (** the support — the ordinary fixpoint *)
  stats : stats;
  numbering : (string, int Tuple.KTbl.t) Hashtbl.t;
      (** the derivation graph's numbering of the support's facts: per
          predicate, a fact's id vector -> its number; empty under
          [Bool], where membership in the support is the annotation and
          no graph is built *)
  value : Semiring.v array;  (** the annotation of each numbered fact *)
}

(** [run tag program edb] evaluates [program] on [edb] under the [tag]
    semiring. Counters (when tracing): [annot.universe],
    [annot.derivations], [annot.rounds], [annot.forced],
    [annot.infinite], [annot.par.fallbacks].
    @raise Unsupported outside positive Datalog. *)
val run :
  ?trace:Observe.Trace.ctx -> Semiring.tag -> Ast.program -> Instance.t -> t

(** [annotation r pred tup] is the fact's annotation ([zero] when the
    fact is not in the support). *)
val annotation : t -> string -> Tuple.t -> Semiring.v
