(** Distributed Datalog with located facts — the "distributed data
    exchange" adoption area of the paper (§6: declarative networking,
    Dedalus/Bloom, Webdamlog [11]; the semantics there is
    "nondeterministic and based on forward chaining, similarly to active
    rules").

    A {e network} is a set of peers, each holding a local store and a set
    of rules. Rules are installed at a peer; bodies are evaluated against
    the local store only (communication is explicit); the head carries a
    {e location} — a constant peer, the local peer, or a variable bound by
    the body, in which case the derived fact is {e sent} to that peer
    (Webdamlog-style data routing).

    Evaluation is forward chaining with explicit messaging: a scheduler
    repeatedly activates one peer, which (1) ingests its pending messages
    and (2) fires its rules once (one parallel application of the
    immediate-consequence operator, inflationary). The run terminates when
    no messages are pending and no peer can derive anything new.
    Nondeterminism lives in the schedule.

    The CALM intuition the paper recounts (§6, [80, 81, 21–25]) is
    observable here: {e negation-free} (monotone) networks converge to
    the same global state under every schedule, while networks with
    negation can be schedule-dependent — experiment E13 measures exactly
    this.

    Simplification vs Webdamlog: peers exchange {e facts} only; rule
    delegation (shipping rules, which genuinely adds expressive power
    [11]) is out of scope and documented as such in DESIGN.md. *)

open Relational

(** Head location. *)
type location =
  | Local  (** stays at the installing peer *)
  | At_peer of string  (** sent to a named peer *)
  | At_var of string  (** sent to the peer named by this body variable *)

type lrule = {
  location : location;
  rule : Datalog.Ast.rule;  (** single positive head; Datalog¬ body, evaluated
                        against the installing peer's local store *)
}

type network = {
  peers : string list;
  programs : (string * lrule list) list;  (** rules installed per peer *)
  stores : (string * Instance.t) list;  (** initial local stores *)
}

type schedule =
  | Round_robin
  | Random_sched of int  (** seeded random peer permutation per round *)

type outcome = {
  stores : (string * Instance.t) list;  (** final local stores *)
  rounds : int;  (** peer activations *)
  messages : int;  (** facts delivered across peers *)
}

exception Bad_network of string

(** [check net] validates: every program key and [At_peer] target is a
    known peer; rules are Datalog¬ with single positive heads; [At_var]
    variables occur in the rule body.
    @raise Bad_network / [Datalog.Ast.Check_error] otherwise. *)
val check : network -> unit

(** [run ?schedule ?fuel net] runs to quiescence (default schedule
    [Round_robin]) within [fuel] peer activations (default 10_000).
    [trace] counts [netlog.activations], [netlog.messages], and the
    per-peer message volumes [netlog.sent.<peer>] / [netlog.recv.<peer>],
    plus the stores' [db.*] counters.
    @raise Relational.Fuel.Exhausted (engine ["netlog"]) when the
    activations run out, with the {!global} snapshot of the stores. *)
val run :
  ?schedule:schedule ->
  ?fuel:int ->
  ?trace:Observe.Trace.ctx ->
  network ->
  outcome

(** [store outcome peer] is a peer's final local store. *)
val store : outcome -> string -> Instance.t

(** [global outcome] is the union of all stores with each predicate
    prefixed by its peer ([peer::pred]) — a convenient global snapshot
    for comparing runs. *)
val global : outcome -> Instance.t

(** [confluent net] runs under round-robin and 5 seeded random schedules
    and reports whether all global outcomes coincide — the executable
    CALM check. *)
val confluent : network -> bool
