(** Evaluator for the while / fixpoint languages.

    FO queries are evaluated with active-domain semantics over the current
    instance (extended with the formula's constants). Every query of the
    program is compiled {e once} to an {!Relational.Algebra} plan via
    {!Relational.Fo.compile} — default-domain plans are
    instance-independent, so the same plan runs on every loop iteration;
    loop conditions become nullary plans. [~naive:true] reverts to the
    pre-compilation enumerators ({!Relational.Fo.eval_naive}), kept as the
    reference oracle. [While] loops may diverge — evaluation takes fuel,
    counted in executed loop iterations. *)

open Relational

type result = { instance : Instance.t; iterations : int }

(** [run ?fuel ?trace ?profile ?naive p inst] runs [p] to completion
    within [fuel] loop iterations (default 100_000; compiled evaluation;
    [trace] collects the [fo.plan.*] and algebra counters; [profile]
    accumulates per-operator statistics over every plan execution, see
    {!Relational.Fo.run_plan}).
    @raise Invalid_argument via {!Wast.check} on ill-formed programs.
    @raise Relational.Fuel.Exhausted (engine ["while"]) when the
    iterations run out, with the instance at the start of the loop
    iteration that exceeded them. *)
val run :
  ?fuel:int ->
  ?trace:Observe.Trace.ctx ->
  ?profile:Algebra.profile ->
  ?naive:bool ->
  Wast.program ->
  Instance.t ->
  result

(** [answer p inst pred] projects one relation from the final instance.
    @raise Relational.Fuel.Exhausted as {!run}. *)
val answer :
  ?fuel:int ->
  ?trace:Observe.Trace.ctx ->
  ?profile:Algebra.profile ->
  ?naive:bool ->
  Wast.program ->
  Instance.t ->
  string ->
  Relation.t
