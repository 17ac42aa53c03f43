(** Abstract syntax of the {e while} and {e fixpoint} languages (§2).

    While is an imperative language over relation variables with FO
    assignments and a looping construct. Fixpoint is the same language
    with {e cumulative} assignment only ([R += φ]), which forces
    termination in polynomial time; while programs may diverge and run in
    polynomial space. On ordered databases, fixpoint = db-ptime and
    while = db-pspace (§2, Theorems 4.7/4.8 context). *)

open Relational

(** An FO query: formula plus output variable order (the assigned
    relation's columns). *)
type query = { formula : Fo.formula; vars : string list }

type stmt =
  | Assign of string * query  (** [R := φ] — destructive *)
  | Cumulate of string * query  (** [R += φ] — cumulative *)
  | While_change of stmt list
      (** [while change do ... od]: iterate while some relation changes *)
  | While of Fo.formula * stmt list
      (** [while φ do ... od]: iterate while the sentence [φ] holds *)

type program = stmt list

(** [is_fixpoint p]: only cumulative assignments occur — the fixpoint
    sublanguage, guaranteed to terminate. *)
val is_fixpoint : program -> bool

(** [check p] validates that every query's [vars] covers its formula's
    free variables and that [While] conditions are sentences.
    @raise Invalid_argument otherwise. *)
val check : program -> unit

val pp : Format.formatter -> program -> unit
