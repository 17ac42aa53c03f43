(* Ontological query answering with Datalog± and the chase (§6 of the
   paper: the Calì–Gottlob–Lukasiewicz family, "an elegant unifying
   formalism that subsumes well-known description logics"; Vadalog builds
   on the warded fragment).

   A tiny enterprise ontology: every employee works in some department
   (unknown which — an existential); departments have managers; managers
   are employees. The restricted chase materializes labelled nulls for the
   unknowns; certain answers are the null-free ones.

   Run with: dune exec examples/ontology_reasoning.exe *)
open Relational
module Chase = Ontology.Chase

let tgd = Datalog.Parser.parse_rule

let onto =
  [
    tgd "worksIn(E, D) :- emp(E).";
    tgd "hasManager(D, M) :- worksIn(E, D).";
    (* managers work in their own department — this closes the
       existential loop so the restricted chase terminates *)
    tgd "worksIn(M, D) :- hasManager(D, M).";
    tgd "emp(M) :- hasManager(D, M).";
    tgd "supervises(M, E) :- worksIn(E, D), hasManager(D, M).";
  ]

let data = Instance.parse_facts "emp(alice). emp(bob). worksIn(bob, eng)."

let () =
  Format.printf "ontology (%d tgds): linear=%b guarded=%b weakly-acyclic=%b@.@."
    (List.length onto) (Chase.is_linear onto)
    (Chase.is_guarded onto)
    (Chase.weakly_acyclic onto);

  let { Chase.instance; steps; nulls } = Chase.chase onto data in
  Format.printf
    "restricted chase terminated: %d trigger applications, %d nulls@.@." steps
    nulls;
  Format.printf "chased instance:@.%a@.@." Instance.pp instance;

  (* Boolean conjunctive query: is somebody supervised by a manager who is
     themselves an employee? *)
  let q =
    [
      Datalog.Parser.parse_atom "supervises(M, alice)";
      Datalog.Parser.parse_atom "emp(M)";
    ]
  in
  Format.printf "BCQ: does some employee-manager supervise alice? %b@."
    (Chase.bcq onto data q);

  (* certain answers: who certainly works somewhere? *)
  let workers =
    Chase.certain_answers onto data
      { Chase.body = [ Datalog.Parser.parse_atom "worksIn(E, D)" ]; answer = [ "E" ] }
  in
  Format.printf "certainly employed: %a@." Relation.pp workers;
  (* bob's department is known; alice's is a null *)
  let depts =
    Chase.certain_answers onto data
      { Chase.body = [ Datalog.Parser.parse_atom "worksIn(E, D)" ]; answer = [ "E"; "D" ] }
  in
  Format.printf "certain (employee, department) pairs: %a@." Relation.pp depts
