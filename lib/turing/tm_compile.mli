(** Compiling Turing machines to Datalog¬new — the executable content of
    Theorem 4.6 ("Datalog¬new expresses all computable queries").

    The proof sketch in §4.3 simulates a Turing machine using invented
    values for the unbounded workspace. This module performs the
    construction concretely:

    - each machine step {e invents a new time point} [T2] and derives
      [state(T2, q')], [head(T2, P')] and the new tape;
    - the tape is copied from [T] to [T2] cell-by-cell, except the head
      cell, which receives the written symbol;
    - moving past the materialized tape {e invents a new cell} (with
      successor links and a blank), so space is unbounded — this is
      exactly how invention breaks the polynomial space barrier;
    - halting states have no transition rules, so the program reaches its
      inflationary fixpoint iff the machine halts.

    Fidelity caveat: a machine that halts by {e missing} a transition
    (implicit reject) makes the compiled program reach a fixpoint with
    neither [accepted] nor [rejected] derived; machines with explicit
    reject transitions derive [rejected]. *)



(** Predicate names used by the compilation (also the interface for
    inspecting results). *)
val state_pred : string  (** [state(T, Q)] *)

val head_pred : string
(** [head(T, P)] *)

val tape_pred : string
(** [tape(T, P, S)] *)

val tsucc_pred : string
(** [tsucc(P, P')]: cell [P'] is right of [P] *)

val tstep_pred : string
(** [tstep(T, T')]: step relation on times *)

val accepted_pred : string
(** 0-ary: derived on acceptance *)

val rejected_pred : string
(** 0-ary: derived on explicit rejection *)

val final_tape_pred : string
(** [final_tape(P, S)] at acceptance *)

(** [compile m] produces the Datalog¬new program simulating [m]. *)
val compile : Tm.t -> Datalog.Ast.program

(** [initial_instance m input] encodes the machine's initial configuration
    (input written on cells [p0, p1, ...], head on [p0], time [t0]). *)
val initial_instance : Tm.t -> string list -> Relational.Instance.t

type sim_result = {
  accepted : bool;
  rejected : bool;
  steps : int;  (** simulated machine steps (cardinality of [tstep]) *)
  invented : int;  (** fresh values minted during the run *)
  stages : int;  (** inflationary stages used *)
  final_tape : (string * string) list;
      (** (cell display name, symbol) at acceptance, in tape order —
          empty unless accepted *)
}

(** [simulate ?fuel m input] compiles, runs under {!Datalog.Invent}
    within [fuel] inflationary stages (default 100_000), and decodes the
    outcome. @raise Relational.Fuel.Exhausted (engine ["invent"]) if the
    stages run out. *)
val simulate : ?fuel:int -> Tm.t -> string list -> sim_result

(** [agrees_with_reference ?fuel m input] runs both the direct
    interpreter {!Tm.run} (within [fuel] machine steps, default 10_000)
    and the Datalog¬new simulation (within [20 * fuel] stages) and checks
    they agree on acceptance and on the final tape contents.
    @raise Relational.Fuel.Exhausted as {!simulate}. *)
val agrees_with_reference : ?fuel:int -> Tm.t -> string list -> bool
