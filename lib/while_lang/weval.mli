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

type outcome =
  | Completed of { instance : Instance.t; iterations : int }
  | Out_of_fuel of { instance : Instance.t; iterations : int }

(** [run ?fuel ?trace ?profile ?naive p inst] (default fuel 100_000 loop
    iterations, compiled evaluation; [trace] collects the [fo.plan.*] and
    algebra counters; [profile] accumulates per-operator statistics over
    every plan execution, see {!Relational.Fo.run_plan}).
    @raise Invalid_argument via {!Wast.check} on ill-formed programs. *)
val run :
  ?fuel:int ->
  ?trace:Observe.Trace.ctx ->
  ?profile:Algebra.profile ->
  ?naive:bool ->
  Wast.program ->
  Instance.t ->
  outcome

(** [eval p inst] expects completion. @raise Failure on fuel
    exhaustion. *)
val eval :
  ?fuel:int ->
  ?trace:Observe.Trace.ctx ->
  ?profile:Algebra.profile ->
  ?naive:bool ->
  Wast.program ->
  Instance.t ->
  Instance.t

(** [answer p inst pred] projects one relation from the final instance. *)
val answer :
  ?fuel:int ->
  ?trace:Observe.Trace.ctx ->
  ?profile:Algebra.profile ->
  ?naive:bool ->
  Wast.program ->
  Instance.t ->
  string ->
  Relation.t
