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

(** [compile m] produces the Datalog¬new program simulating [m]. *)
val compile : Tm.t -> Datalog.Ast.program

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
