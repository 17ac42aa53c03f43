(** A production-system / active-rule layer over the forward-chaining
    semantics (§5's OPS5 discussion and §7's adoption story).

    Production systems (OPS5, KEE) run a {e recognize–act} cycle: match all
    rules against working memory, pick one instantiation by a
    {e conflict-resolution strategy}, apply its actions (assert/retract),
    repeat. This is precisely N-Datalog¬¬ evaluation with a pluggable
    choice function — the paper's point that forward chaining naturally
    hosts production systems and active databases. Rules reuse the
    {!Ast.rule} type: positive heads assert, negative heads retract.

    Strategies:
    - {!First}: first rule in program order, first instantiation (PROLOG-ish
      determinism);
    - {!Random}: uniform among applicable instantiations (seeded);
    - {!Recency}: prefer instantiations matching the most recently asserted
      facts (OPS5's LEX flavour, approximated by fact age);
    - {!Specificity}: prefer rules with more body literals (OPS5's MEA
      tie-breaker). *)

open Relational

type strategy = First | Random of int | Recency | Specificity

type fired = {
  rule_index : int;  (** index into the program *)
  asserted : (string * Tuple.t) list;
  retracted : (string * Tuple.t) list;
}

type result = {
  memory : Instance.t;  (** final working memory *)
  cycles : int;
  trace : fired list;  (** firings, oldest first *)
}

(** [run ?strategy ?fuel p inst] executes the recognize–act cycle until
    no rule changes working memory (default strategy [First]), within
    [fuel] cycles (default 10_000). [trace] receives the counters
    [production.cycles] and [production.candidates] (conflict-set sizes
    summed over cycles) plus the working memory's [db.*] / [matcher.*]
    counters.
    @raise Ast.Check_error if [p] is not N-Datalog¬¬ syntax.
    @raise Fuel.Exhausted (engine ["production"]) when the cycles run
    out. *)
val run :
  ?strategy:strategy ->
  ?fuel:int ->
  ?trace:Observe.Trace.ctx ->
  Ast.program ->
  Instance.t ->
  result

(** [refraction] note: a fired (rule, instantiation) pair is not fired
    again unless its matched facts were retracted and re-asserted —
    standard production-system refraction, preventing trivial loops on
    assert-only rules. Exposed for documentation; always on. *)
val refraction : bool
