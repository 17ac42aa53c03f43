(* Monadic Datalog over trees (§6 data extraction) and Datalog± with the
   chase (§6 ontologies). *)
open Relational
open Helpers
module Tree = Trees.Tree
module Chase = Ontology.Chase

(* --- trees ----------------------------------------------------------------- *)

let doc =
  Tree.parse
    "html(body(list(item(price, title), item(price), note), footer))"

let test_tree_parse_roundtrip () =
  Alcotest.(check string)
    "roundtrip"
    "html(body(list(item(price, title), item(price), note), footer))"
    (Tree.to_string doc);
  Alcotest.(check int) "size" 10 (Tree.size doc)

let test_tree_parse_errors () =
  List.iter
    (fun s ->
      match Tree.parse s with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "expected failure for %S" s)
    [ ""; "a(b"; "a(b,)"; "a)b"; "a b" ]

let test_encoding_shape () =
  let inst = Tree.to_instance doc in
  Alcotest.(check int) "one root" 1
    (Relation.cardinal (Instance.find "root" inst));
  (* leaves: price, title, price, note, footer *)
  Alcotest.(check int) "five leaves" 5
    (Relation.cardinal (Instance.find "leaf" inst));
  (* firstchild is functional *)
  let fc = Instance.find "firstchild" inst in
  let srcs =
    Relation.fold (fun t acc -> Tuple.get t 0 :: acc) fc []
  in
  Alcotest.(check int) "firstchild functional"
    (List.length srcs)
    (List.length (List.sort_uniq Value.compare srcs))

(* the Lixto-style wrapper: select the prices of items that have a title *)
let wrapper =
  prog
    {|
    item_node(X) :- label_item(X).
    has_title(X) :- item_node(X), child(X, T), label_title(T).
    selected(P) :- has_title(X), child(X, P), label_price(P).
  |}

let test_monadic_wrapper () =
  Alcotest.(check bool) "wrapper is monadic" true (Tree.is_monadic wrapper);
  let selected = Tree.select wrapper doc "selected" in
  (* exactly one item has a title; its price is node n4 *)
  Alcotest.(check int) "one price" 1 (List.length selected);
  Alcotest.(check string) "it is a price" "price" (snd (List.hd selected))

let test_nonmonadic_detected () =
  Alcotest.(check bool) "child-copy is not monadic" false
    (Tree.is_monadic (prog "both(X, Y) :- child(X, Y)."))

let test_descendant_query () =
  (* descendants of list nodes that are leaves *)
  let p =
    prog
      {|
      under_list(Y) :- label_list(X), child(X, Y).
      under_list(Y) :- under_list(X), child(X, Y).
      sel(Y) :- under_list(Y), leaf(Y).
    |}
  in
  let selected = Tree.select p doc "sel" in
  Alcotest.(check int) "4 leaf descendants" 4 (List.length selected)

let test_stratified_tree_query () =
  (* items WITHOUT a title — negation over a derived monadic predicate *)
  let p =
    prog
      {|
      has_title(X) :- label_item(X), child(X, T), label_title(T).
      untitled(X) :- label_item(X), !has_title(X).
    |}
  in
  let selected = Tree.select p doc "untitled" in
  Alcotest.(check int) "one untitled item" 1 (List.length selected)

let test_random_tree_encoding () =
  let t = Tree.random ~seed:5 ~depth:4 ~width:3 ~labels:[ "a"; "b"; "c" ] in
  let inst = Tree.to_instance t in
  Alcotest.(check int) "lab matches size" (Tree.size t)
    (Relation.cardinal (Instance.find "lab" inst))

(* --- Datalog± / chase -------------------------------------------------------- *)

let tgd src = Datalog.Parser.parse_rule src

(* every employee works in some department, which has some manager *)
(* every employee works in some department; departments have managers;
   a manager works in their own department and is an employee. The last
   two rules close the existential loop, so the restricted chase
   terminates even though the tgds are cyclic (not weakly acyclic) —
   weak acyclicity is sufficient, not necessary. *)
let onto =
  [
    tgd "worksIn(E, D) :- emp(E).";
    tgd "hasManager(D, M) :- worksIn(E, D).";
    tgd "worksIn(M, D) :- hasManager(D, M).";
    tgd "emp(M) :- hasManager(D, M).";
  ]

let test_classification () =
  Chase.check onto;
  Alcotest.(check bool) "linear" true (Chase.is_linear onto);
  Alcotest.(check bool) "guarded (linear => guarded)" true
    (Chase.is_guarded onto);
  Alcotest.(check bool) "not weakly acyclic (emp cycle)" false
    (Chase.weakly_acyclic onto);
  let acyclic = [ tgd "worksIn(E, D) :- emp(E)." ] in
  Alcotest.(check bool) "single tgd weakly acyclic" true
    (Chase.weakly_acyclic acyclic);
  let nonguarded =
    [ tgd "r(X, Y, Z) :- p(X, Y), q(Y, Z), s(Z, W)." ]
  in
  (* the body has variables X,Y,Z,W; no single atom contains them all *)
  Alcotest.(check bool) "non-guarded detected" false
    (Chase.is_guarded nonguarded)

let test_chase_terminates_despite_cycle () =
  (* the restricted chase terminates here: the manager null created for a
     department satisfies later triggers *)
  let inst = facts "emp(alice)." in
  match Chase.chase onto inst with
  | { Chase.instance; nulls; _ } ->
      Alcotest.(check bool) "created nulls" true (nulls >= 2);
      (* alice works somewhere; that department has a manager; the manager
         is an employee; the manager works somewhere (their own dept is
         satisfied by... must also chase, but restricted chase reuses) *)
      Alcotest.(check bool) "worksIn nonempty" true
        (not (Relation.is_empty (Instance.find "worksIn" instance)))
  | exception Fuel.Exhausted _ ->
      Alcotest.fail "restricted chase should terminate"

let test_bcq_and_certain_answers () =
  let inst = facts "emp(alice). emp(bob)." in
  (* BCQ: does alice work in a department with a manager? *)
  let q =
    [
      Datalog.Parser.parse_atom "worksIn(alice, D)";
      Datalog.Parser.parse_atom "hasManager(D, M)";
    ]
  in
  Alcotest.(check bool) "bcq holds" true (Chase.bcq onto inst q);
  (* certain answers: which constants certainly work somewhere? the
     employees; their departments are nulls so don't appear *)
  let ca =
    Chase.certain_answers onto inst
      {
        Chase.body = [ Datalog.Parser.parse_atom "worksIn(E, D)" ];
        answer = [ "E" ];
      }
  in
  check_rel "certain workers" (unary [ "alice"; "bob" ]) ca;
  let ca_depts =
    Chase.certain_answers onto inst
      {
        Chase.body = [ Datalog.Parser.parse_atom "worksIn(E, D)" ];
        answer = [ "D" ];
      }
  in
  check_rel "departments are nulls: no certain answers" Relation.empty
    ca_depts

let test_chase_multi_atom_head () =
  (* ∃-head with two atoms sharing the null *)
  let tgds = [ tgd "parent(X, P), person(P) :- person(X)." ] in
  let inst = facts "person(adam)." in
  match Chase.chase ~fuel:6 tgds inst with
  | exception Fuel.Exhausted { engine; budget; instance } ->
      (* genuinely infinite chase (ancestors forever): fuel stops it *)
      Alcotest.(check string) "engine" "chase" engine;
      Alcotest.(check int) "budget" 6 budget;
      (* each trigger application adds one parent fact *)
      Alcotest.(check int) "fuel consumed" 6
        (Relation.cardinal (Instance.find "parent" instance));
      Alcotest.(check bool) "parents materialized" true
        (Relation.cardinal (Instance.find "parent" instance) >= 5)
  | _ ->
      Alcotest.fail "ancestor chase should be infinite"

let test_chase_restricted_no_new_when_satisfied () =
  (* if the head is already satisfied, no null is created *)
  let tgds = [ tgd "worksIn(E, D) :- emp(E)." ] in
  let inst = facts "emp(alice). worksIn(alice, sales)." in
  let { Chase.nulls; steps; _ } = Chase.chase tgds inst in
  Alcotest.(check int) "no nulls" 0 nulls;
  Alcotest.(check int) "no steps" 0 steps

let test_chase_rejects_negation () =
  match Chase.check [ tgd "p(X, Y) :- q(X), !r(X)." ] with
  | exception Datalog.Ast.Check_error _ -> ()
  | _ -> Alcotest.fail "expected rejection"

let suite =
  [
    Alcotest.test_case "tree parse/print" `Quick test_tree_parse_roundtrip;
    Alcotest.test_case "tree parse errors" `Quick test_tree_parse_errors;
    Alcotest.test_case "tree encoding shape" `Quick test_encoding_shape;
    Alcotest.test_case "monadic wrapper (Lixto-style)" `Quick
      test_monadic_wrapper;
    Alcotest.test_case "non-monadic detected" `Quick test_nonmonadic_detected;
    Alcotest.test_case "descendant query" `Quick test_descendant_query;
    Alcotest.test_case "stratified tree query" `Quick
      test_stratified_tree_query;
    Alcotest.test_case "random tree encoding" `Quick test_random_tree_encoding;
    Alcotest.test_case "Datalog± class recognition" `Quick test_classification;
    Alcotest.test_case "restricted chase terminates on cycle" `Quick
      test_chase_terminates_despite_cycle;
    Alcotest.test_case "BCQ and certain answers" `Quick
      test_bcq_and_certain_answers;
    Alcotest.test_case "multi-atom heads / infinite chase" `Quick
      test_chase_multi_atom_head;
    Alcotest.test_case "restricted chase skips satisfied heads" `Quick
      test_chase_restricted_no_new_when_satisfied;
    Alcotest.test_case "tgds reject negation" `Quick
      test_chase_rejects_negation;
  ]
