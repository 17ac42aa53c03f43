(* While/fixpoint language: evaluator, FO compilation, and the Theorem 4.2
   loop compilation (Examples 4.3/4.4 generalized). *)
open Relational
open Helpers
open While_lang

(* Example 4.4: good = nodes not reachable from a cycle.
   while change do good += forall y (G(y,x) -> good(y)) *)
let good_query =
  {
    Wast.formula =
      Fo.Forall
        ( [ "y" ],
          Fo.Implies (Fo.Atom ("G", [ Fo.Var "y"; Fo.Var "x" ]), Fo.Atom ("good", [ Fo.Var "y" ])) );
    vars = [ "x" ];
  }

let good_program = [ Wast.While_change [ Wast.Cumulate ("good", good_query) ] ]

(* Reference: nodes x such that no cycle reaches x. *)
let reference_good inst =
  let edges = Instance.find "G" inst in
  let tc = Graph_gen.reference_tc edges in
  let nodes = Relation.values edges in
  let on_cycle v = Relation.mem (t [ v; v ]) tc in
  let reachable_from_cycle x =
    List.exists
      (fun c -> on_cycle c && (Relation.mem (t [ c; x ]) tc || Value.equal c x))
      nodes
  in
  Relation.of_list
    (List.filter_map
       (fun x -> if reachable_from_cycle x then None else Some (t [ x ]))
       nodes)

let graphs =
  [
    ("chain", Graph_gen.chain 5);
    ("cycle", Graph_gen.cycle 4);
    ("cycle+tail", facts "G(a,b). G(b,a). G(b,c). G(c,d). G(e,d).");
    ("tree", Graph_gen.binary_tree 3);
    ("random", Graph_gen.random ~seed:7 8 14);
  ]

let test_while_good_reference () =
  List.iter
    (fun (name, inst) ->
      let got = Weval.answer good_program inst "good" in
      let expected = reference_good inst in
      check_rel (Printf.sprintf "good on %s" name) expected got)
    graphs

let test_while_change_terminates () =
  let inst = Graph_gen.chain 10 in
  let { Weval.iterations; _ } = Weval.run good_program inst in
  Alcotest.(check bool) "bounded iterations" true (iterations <= 12)

let test_while_divergence_detected () =
  (* while true do R := ¬R — flip-flops forever *)
  let p =
    [
      Wast.While
        ( Fo.True,
          [
            Wast.Assign
              ( "R",
                {
                  Wast.formula = Fo.Not (Fo.Atom ("R", [ Fo.Var "x" ]));
                  vars = [ "x" ];
                } );
          ] );
    ]
  in
  let inst = facts "S(a). S(b)." in
  match Weval.run ~fuel:50 p inst with
  | exception Fuel.Exhausted { engine = "while"; budget = 50; _ } -> ()
  | _ -> Alcotest.fail "expected divergence"

(* The first iteration fills R, then the loop spins on T forever: the
   state the fuel stops at holds R, the input does not. *)
let test_fuel_carries_reached_state () =
  let q f = { Wast.formula = f; vars = [ "x" ] } in
  let p =
    [
      Wast.While
        ( Fo.True,
          [
            Wast.Cumulate ("R", q (Fo.Atom ("S", [ Fo.Var "x" ])));
            Wast.Assign ("T", q (Fo.Not (Fo.Atom ("T", [ Fo.Var "x" ]))));
          ] );
    ]
  in
  List.iter
    (fun naive ->
      match Weval.run ~fuel:5 ~naive p (facts "S(a). S(b).") with
      | exception Fuel.Exhausted { instance; _ } ->
          check_rel
            (Printf.sprintf "R reached (naive=%b)" naive)
            (unary [ "a"; "b" ])
            (Instance.find "R" instance)
      | _ -> Alcotest.fail "expected divergence")
    [ false; true ]

let test_while_assign_vs_cumulate () =
  (* destructive := replaces, += accumulates *)
  let q1 = { Wast.formula = Fo.Atom ("A", [ Fo.Var "x" ]); vars = [ "x" ] } in
  let q2 = { Wast.formula = Fo.Atom ("B", [ Fo.Var "x" ]); vars = [ "x" ] } in
  let inst = facts "A(a). B(b)." in
  let replaced =
    Weval.answer [ Wast.Assign ("R", q1); Wast.Assign ("R", q2) ] inst "R"
  in
  check_rel "replace" (unary [ "b" ]) replaced;
  let accumulated =
    Weval.answer [ Wast.Cumulate ("R", q1); Wast.Cumulate ("R", q2) ] inst "R"
  in
  check_rel "accumulate" (unary [ "a"; "b" ]) accumulated

let test_fixpoint_classification () =
  Alcotest.(check bool) "good program is fixpoint" true
    (Wast.is_fixpoint good_program);
  Alcotest.(check bool) "assign makes it while" false
    (Wast.is_fixpoint
       [ Wast.Assign ("R", { Wast.formula = Fo.True; vars = [] }) ])

(* --- FO compilation ---------------------------------------------------- *)

let sources = [ ("G", 2); ("P", 1) ]

let fo_cases =
  [
    ( "difference",
      Fo.And
        ( Fo.Atom ("P", [ Fo.Var "x" ]),
          Fo.Not (Fo.Exists ([ "y" ], Fo.Atom ("G", [ Fo.Var "x"; Fo.Var "y" ])))
        ),
      [ "x" ] );
    ( "universal",
      Fo.Forall
        ( [ "y" ],
          Fo.Implies
            ( Fo.Atom ("G", [ Fo.Var "y"; Fo.Var "x" ]),
              Fo.Atom ("P", [ Fo.Var "y" ]) ) ),
      [ "x" ] );
    ("equality", Fo.Eq (Fo.Var "x", Fo.Var "y"), [ "x"; "y" ]);
    ( "disjunction",
      Fo.Or (Fo.Atom ("P", [ Fo.Var "x" ]), Fo.Exists ([ "y" ], Fo.Atom ("G", [ Fo.Var "x"; Fo.Var "y" ]))),
      [ "x" ] );
  ]

let fo_instance = facts "G(a,b). G(b,c). G(c,c). P(a). P(c)."

let test_fo_compile_matches_eval () =
  List.iter
    (fun (name, f, vars) ->
      let direct = Fo.eval fo_instance f vars in
      let compiled = Fo_compile.answer ~sources f vars fo_instance in
      check_rel (Printf.sprintf "FO compile: %s" name) direct compiled)
    fo_cases

let test_fo_compile_is_stratifiable () =
  List.iter
    (fun (_, f, vars) ->
      let { Fo_compile.rules; _ } = Fo_compile.compile ~sources f vars in
      Alcotest.(check bool) "stratifiable" true
        (Datalog.Stratify.is_stratifiable rules))
    fo_cases

(* --- Theorem 4.2: fixpoint loop -> inflationary Datalog¬ --------------- *)

let test_loop_compile_stamped_good () =
  List.iter
    (fun (name, inst) ->
      let got =
        Compile.run_loop ~sources:[ ("G", 2) ] ~rel:"good" good_query inst
      in
      let expected = Weval.answer good_program inst "good" in
      check_rel (Printf.sprintf "compiled good on %s" name) expected got)
    graphs

let test_loop_compile_mode_detection () =
  let { Compile.mode; _ } =
    Compile.fixpoint_loop ~sources:[ ("G", 2) ] ~rel:"good" good_query
  in
  Alcotest.(check bool) "good loop uses stamps" true (mode = Compile.Stamped)

let test_loop_compile_monotone_tc () =
  (* while change do T += G(x,y) ∨ ∃z (G(x,z) ∧ T(z,y)) — monotone *)
  let q =
    {
      Wast.formula =
        Fo.Or
          ( Fo.Atom ("G", [ Fo.Var "x"; Fo.Var "y" ]),
            Fo.Exists
              ( [ "z" ],
                Fo.And
                  ( Fo.Atom ("G", [ Fo.Var "x"; Fo.Var "z" ]),
                    Fo.Atom ("T", [ Fo.Var "z"; Fo.Var "y" ]) ) ) );
      vars = [ "x"; "y" ];
    }
  in
  let { Compile.mode; _ } =
    Compile.fixpoint_loop ~sources:[ ("G", 2) ] ~rel:"T" q
  in
  Alcotest.(check bool) "TC loop is monotone" true (mode = Compile.Monotone);
  List.iter
    (fun (name, inst) ->
      let got = Compile.run_loop ~sources:[ ("G", 2) ] ~rel:"T" q inst in
      let expected = Graph_gen.reference_tc (Instance.find "G" inst) in
      check_rel (Printf.sprintf "compiled TC on %s" name) expected got)
    graphs

let test_loop_compile_rejects_mixed () =
  (* R occurs both positively and under negation *)
  let q =
    {
      Wast.formula =
        Fo.And
          ( Fo.Atom ("R", [ Fo.Var "x" ]),
            Fo.Not (Fo.Atom ("R", [ Fo.Var "x" ])) );
      vars = [ "x" ];
    }
  in
  match Compile.fixpoint_loop ~sources:[ ("G", 2) ] ~rel:"R" q with
  | exception Compile.Unsupported _ -> ()
  | _ -> Alcotest.fail "expected Unsupported"

let suite =
  [
    Alcotest.test_case "good/bad loop matches reference (Ex 4.4)" `Quick
      test_while_good_reference;
    Alcotest.test_case "while-change terminates" `Quick
      test_while_change_terminates;
    Alcotest.test_case "divergent while detected" `Quick
      test_while_divergence_detected;
    Alcotest.test_case "fuel error carries the reached state" `Quick
      test_fuel_carries_reached_state;
    Alcotest.test_case ":= replaces, += accumulates" `Quick
      test_while_assign_vs_cumulate;
    Alcotest.test_case "fixpoint classification" `Quick
      test_fixpoint_classification;
    Alcotest.test_case "FO compile matches direct eval" `Quick
      test_fo_compile_matches_eval;
    Alcotest.test_case "FO compile output is stratifiable" `Quick
      test_fo_compile_is_stratifiable;
    Alcotest.test_case "loop compile: stamped good (Ex 4.4)" `Quick
      test_loop_compile_stamped_good;
    Alcotest.test_case "loop compile: mode detection" `Quick
      test_loop_compile_mode_detection;
    Alcotest.test_case "loop compile: monotone TC" `Quick
      test_loop_compile_monotone_tc;
    Alcotest.test_case "loop compile: mixed polarity rejected" `Quick
      test_loop_compile_rejects_mixed;
  ]
