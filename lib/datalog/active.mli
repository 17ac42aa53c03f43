(** An active-database rule engine: event–condition–action (ECA) rules
    over the relational substrate, in the spirit of the systems the paper
    credits as early adopters of forward chaining (§7; [117] Widom–Ceri,
    and the Datalog-based analysis of active-rule semantics in [104]
    Picouet–Vianu).

    An ECA rule fires when a triggering {e event} (insertion or deletion
    matching a pattern) occurs, its {e condition} (a conjunction of
    literals, evaluated with the event's bindings) holds, and then
    executes its {e actions} (insertions/deletions). Two standard
    {e coupling modes} are supported:

    - {!Immediate}: the rule's actions run right after the triggering
      update, before the rest of the transaction (depth-first cascade);
    - {!Deferred}: triggered instances are queued and run at commit,
      repeatedly until quiescence.

    Infinite cascades are possible (as in real active databases); a step
    budget bounds execution. *)

open Relational

type event =
  | On_insert of Ast.atom  (** fires when a matching tuple is inserted *)
  | On_delete of Ast.atom  (** fires when a matching tuple is deleted *)

type action =
  | Insert of Ast.atom
  | Delete of Ast.atom

type mode = Immediate | Deferred

type rule = {
  name : string;
  event : event;
  condition : Ast.blit list;
      (** extra condition literals; may bind further variables *)
  actions : action list;
  mode : mode;
}

(** A primitive update. *)
type update = Ins of string * Tuple.t | Del of string * Tuple.t

type log_entry = {
  rule_name : string option;  (** [None] for the transaction's own updates *)
  update : update;
  applied : bool;  (** no-op updates (already present/absent) are logged
                       with [applied = false] and do not trigger rules *)
}

type result = {
  instance : Instance.t;
  log : log_entry list;  (** chronological *)
  steps : int;
}

(** [run ?fuel rules inst transaction] executes the transaction's
    updates in order with immediate rules cascading depth-first, then
    processes deferred rules to quiescence, within [fuel] applied updates
    (default 10_000). Only updates that actually change the database
    trigger rules.
    [trace] receives the counters [active.updates_applied],
    [active.updates_noop] and [active.triggers.<rule>] (condition matches
    per rule) plus the database's [db.*] counters.
    @raise Relational.Fuel.Exhausted (engine ["active"]) when an applied
    update would exceed the budget, with the state after it.
    @raise Ast.Check_error on malformed patterns/conditions (unbound
    action variables). *)
val run :
  ?fuel:int ->
  ?trace:Observe.Trace.ctx ->
  rule list ->
  Instance.t ->
  update list ->
  result
