(** Concrete-syntax printer for programs.

    Prints the same surface syntax {!Parser} reads, so that
    [Parser.parse_program (Pretty.program_to_string p)] round-trips (tested by property). Conventions:

    - variables print bare when they start with an uppercase letter or
      [_], and as [?x] otherwise;
    - symbolic constants print bare when they are lowercase identifiers,
      and single-quoted otherwise;
    - body negation prints as [!R(...)], head retraction likewise;
    - ⊥ prints as [bottom]; ∀-rules print as
      [h :- forall X, Y : lits]. *)

open Relational

val pp_term : Format.formatter -> Ast.term -> unit
val program_to_string : Ast.program -> string
val rule_to_string : Ast.rule -> string

(** [pp_fact ppf (pred, tuple)] prints a ground fact in program-term
    syntax ([Value.Term]: non-lower-identifier symbols single-quoted), as
    one Format token rendered by {!Relational.Tuple.render_fact}. This is
    the syntax of [run -a], [query] and [serve] answers; unlike
    {!Relational.Instance.pp}'s fact-file syntax, it does not reload
    through the fact loader when it quotes a symbol. *)
val pp_fact : Format.formatter -> string * Tuple.t -> unit
