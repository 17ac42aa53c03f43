(* Edge cases and failure injection across the stack. *)
open Relational
open Helpers

(* --- empty inputs ---------------------------------------------------------- *)

let test_engines_on_empty_instance () =
  let p = tc_program in
  check_rel "naive" Relation.empty (Datalog.Naive.answer p Instance.empty "T");
  check_rel "seminaive" Relation.empty
    (Datalog.Seminaive.answer p Instance.empty "T");
  check_rel "inflationary" Relation.empty
    (Datalog.Inflationary.answer p Instance.empty "T");
  let wf = Datalog.Wellfounded.eval p Instance.empty in
  Alcotest.(check bool) "wf total on empty" true
    (Datalog.Wellfounded.is_total wf)

let test_empty_program () =
  let inst = facts "G(a,b)." in
  (* an empty program maps the input to itself *)
  Alcotest.check instance "identity"
    inst
    (Datalog.Inflationary.eval [] inst).Datalog.Inflationary.instance

let test_fact_only_program () =
  let p = prog "G(x, y). P(z)." in
  let res = Datalog.Seminaive.eval p Instance.empty in
  Alcotest.(check int) "two facts materialized" 2
    (Instance.total_facts res.Datalog.Seminaive.instance)

(* --- constants in programs --------------------------------------------------- *)

let test_program_constants_join_domain () =
  (* the rule's constant is in adom(P, K) even if absent from the input *)
  let p = prog "special(X) :- !blocked(X), X = marker." in
  (* X bound only via equality with a constant — nondeterministic syntax,
     so run under the ND evaluator deterministically *)
  Datalog.Ast.check_ndatalog p;
  let out = Nondet.Enumerate.terminals p (facts "seed(s).") in
  Alcotest.(check int) "one outcome" 1 (List.length out);
  Alcotest.(check bool) "marker derived" true
    (Instance.mem_fact "special" (t [ v "marker" ]) (List.hd out))

let test_wellfounded_with_constants () =
  let p = prog "p(a) :- !q(a). q(a) :- !p(a)." in
  let res = Datalog.Wellfounded.eval p Instance.empty in
  Alcotest.(check int) "both unknown" 2
    (Instance.total_facts (Datalog.Wellfounded.unknown res))

(* --- zero-ary relations --------------------------------------------------------- *)

let test_zero_ary_relations () =
  let p = prog "go() :- trigger(). done2() :- go()." in
  let inst = facts "trigger()." in
  let res = Datalog.Seminaive.eval p inst in
  Alcotest.(check bool) "done2 derived" true
    (Instance.mem_fact "done2" (t []) res.Datalog.Seminaive.instance)

(* --- pretty printer on odd values ---------------------------------------------- *)

let test_pretty_quoted_symbols () =
  (* constants that are not lowercase identifiers must round-trip *)
  let r =
    Datalog.Ast.fact
      (Datalog.Ast.atom "p"
         [
           Datalog.Ast.cst (Value.Sym "Upper");
           Datalog.Ast.cst (Value.Sym "has space");
           Datalog.Ast.cst (Value.Str "a\"b");
           Datalog.Ast.int (-5);
         ])
  in
  let printed = Datalog.Pretty.rule_to_string r in
  let reparsed = Datalog.Parser.parse_rule printed in
  Alcotest.(check bool) "quoted roundtrip" true (r = reparsed)

let test_pretty_lowercase_variable () =
  (* programmatic ASTs may use lowercase variables; they print as ?x *)
  let r =
    Datalog.Ast.rule
      (Datalog.Ast.atom "p" [ Datalog.Ast.var "x" ])
      [ Datalog.Ast.BPos (Datalog.Ast.atom "q" [ Datalog.Ast.var "x" ]) ]
  in
  let printed = Datalog.Pretty.rule_to_string r in
  Alcotest.(check string) "uses ?x" "p(?x) :- q(?x)." printed;
  Alcotest.(check bool) "roundtrip" true
    (Datalog.Parser.parse_rule printed = r)

(* --- divergence fuel ------------------------------------------------------------- *)

let test_invent_fuel_message () =
  let p = prog "next(X, N) :- start(X). next(N, M) :- next(X, N)." in
  match Datalog.Invent.run ~fuel:5 p (facts "start(a).") with
  | exception Fuel.Exhausted { engine; budget; _ } ->
      Alcotest.(check string) "names the engine" "invent" engine;
      Alcotest.(check int) "names the budget" 5 budget
  | _ -> Alcotest.fail "expected fuel exhaustion"

let test_noninflationary_fuel () =
  (* a program that keeps growing (no cycle, no fixpoint within fuel):
     impossible without invention — instead check the cycle detector's
     fuel guard with a tiny budget on a long-running program *)
  let p = prog "T(X,Y) :- G(X,Y). T(X,Y) :- G(X,Z), T(Z,Y)." in
  let inst = Graph_gen.chain 30 in
  match Datalog.Noninflationary.run ~fuel:3 p inst with
  | exception Fuel.Exhausted { engine = "noninflationary"; budget = 3; _ } ->
      ()
  | Datalog.Noninflationary.Fixpoint _ ->
      Alcotest.fail "3 stages cannot close a 30-chain"
  | _ -> Alcotest.fail "unexpected outcome"

(* Every engine that can diverge, each on an input it diverges on (or
   cannot finish within the budget), under a budget far below its
   default: the one signal is [Fuel.Exhausted], naming the engine and
   the budget it was given. *)
let test_fuel_exhausted_everywhere () =
  let grow = prog "next(X, N) :- start(X). next(N, M) :- next(X, N)." in
  let toggle = prog "on(), !off() :- off(). off(), !on() :- on()." in
  let orientation = prog "!G(X, Y) :- G(X, Y), G(Y, X)." in
  let flip =
    let not_r = Fo.Not (Fo.Atom ("R", [ Fo.Var "x" ])) in
    While_lang.Wast.
      [ While (Fo.True, [ Assign ("R", { formula = not_r; vars = [ "x" ] }) ]) ]
  in
  let ancestors =
    [ Datalog.Parser.parse_rule "parent(X, P), person(P) :- person(X)." ]
  in
  let again =
    let a = Datalog.Parser.parse_atom "p(X)" in
    {
      Datalog.Active.name = "again";
      event = Datalog.Active.On_insert a;
      condition = [];
      actions = [ Datalog.Active.Delete a; Datalog.Active.Insert a ];
      mode = Datalog.Active.Immediate;
    }
  in
  let relay =
    {
      Distributed.Netlog.peers = [ "a"; "b" ];
      programs =
        [
          ( "a",
            [
              {
                Distributed.Netlog.location = At_peer "b";
                rule = Datalog.Parser.parse_rule "r(X) :- e(X).";
              };
            ] );
        ];
      stores = [ ("a", facts "e(x).") ];
    }
  in
  let two6 = Graph_gen.two_cycles 6 in
  let cases =
    [
      ("Invent.run", "invent", 5, fun fuel ->
        ignore (Datalog.Invent.run ~fuel grow (facts "start(a).")));
      ("Tm_compile.simulate", "invent", 2, fun fuel ->
        ignore
          (Turing.Tm_compile.simulate ~fuel Turing.Tm.unary_increment [ "1" ]));
      ("Noninflationary.run", "noninflationary", 3, fun fuel ->
        ignore
          (Datalog.Noninflationary.run ~fuel tc_program (Graph_gen.chain 30)));
      ("Weval.run", "while", 7, fun fuel ->
        ignore (While_lang.Weval.run ~fuel flip (facts "S(a).")));
      ("Nd_eval.run", "nondet.walk", 9, fun fuel ->
        ignore (Nondet.Nd_eval.run ~seed:1 ~fuel toggle (facts "on().")));
      ("Constructs.run", "nondet.walk", 4, fun fuel ->
        ignore
          (Nondet.Constructs.run Negneg ~seed:1 ~fuel toggle (facts "on().")));
      ("Enumerate.effect", "nondet.enumerate", 10, fun fuel ->
        ignore (Nondet.Enumerate.effect ~fuel orientation two6));
      ("Constructs.effect", "nondet.enumerate", 11, fun fuel ->
        ignore (Nondet.Constructs.effect Negneg ~fuel orientation two6));
      ("Posscert.poss", "nondet.enumerate", 12, fun fuel ->
        ignore (Nondet.Posscert.poss ~fuel orientation two6));
      ("Posscert.cert", "nondet.enumerate", 13, fun fuel ->
        ignore (Nondet.Posscert.cert ~fuel orientation two6));
      ("Chase.chase", "chase", 6, fun fuel ->
        ignore (Ontology.Chase.chase ~fuel ancestors (facts "person(adam).")));
      ("Chase.bcq", "chase", 8, fun fuel ->
        ignore
          (Ontology.Chase.bcq ~fuel ancestors (facts "person(adam).")
             [ Datalog.Parser.parse_atom "parent(adam, P)" ]));
      ("Active.run", "active", 50, fun fuel ->
        ignore
          (Datalog.Active.run ~fuel [ again ] Instance.empty
             [ Datalog.Active.Ins ("p", t [ v "a" ]) ]));
      ("Production.run", "production", 20, fun fuel ->
        ignore (Datalog.Production.run ~fuel toggle (facts "on().")));
      ("Netlog.run", "netlog", 1, fun fuel ->
        ignore (Distributed.Netlog.run ~fuel relay));
    ]
  in
  List.iter
    (fun (label, engine, budget, run) ->
      match run budget with
      | exception Fuel.Exhausted e ->
          Alcotest.(check (pair string int))
            label (engine, budget) (e.engine, e.budget)
      | () -> Alcotest.failf "%s: finished within %d" label budget)
    cases

(* --- stage counting -------------------------------------------------------------- *)

let test_stage_counts_agree () =
  List.iter
    (fun (name, inst) ->
      let n = (Datalog.Naive.eval tc_program inst).Datalog.Naive.stages in
      let s = (Datalog.Seminaive.eval tc_program inst).Datalog.Seminaive.stages in
      Alcotest.(check int) (name ^ " stages") n s)
    [ ("chain", Graph_gen.chain 7); ("cycle", Graph_gen.cycle 5) ]

let test_trace_length_matches_stages () =
  let inst = Graph_gen.chain 6 in
  let res = Datalog.Inflationary.eval tc_program inst in
  let trace = Datalog.Inflationary.trace tc_program inst in
  (* trace includes stage 0 (the input) and the final fixpoint stage *)
  Alcotest.(check int) "trace length"
    (res.Datalog.Inflationary.stages + 1)
    (List.length trace)

(* --- order on mixed-type domains --------------------------------------------------- *)

let test_order_mixed_types () =
  let inst = facts "P(3). P(\"str\"). P(zed). P(1)." in
  let o = Order.adjoin inst in
  Alcotest.(check bool) "valid" true (Order.is_ordered o);
  (* ints sort before strings before symbols *)
  Alcotest.(check bool) "first is 1" true
    (Instance.mem_fact "first" (t [ i 1 ]) o);
  Alcotest.(check bool) "last is zed" true
    (Instance.mem_fact "last" (t [ v "zed" ]) o)

let suite =
  [
    Alcotest.test_case "engines on empty instance" `Quick
      test_engines_on_empty_instance;
    Alcotest.test_case "empty program is identity" `Quick test_empty_program;
    Alcotest.test_case "fact-only programs" `Quick test_fact_only_program;
    Alcotest.test_case "program constants join adom" `Quick
      test_program_constants_join_domain;
    Alcotest.test_case "well-founded with constants" `Quick
      test_wellfounded_with_constants;
    Alcotest.test_case "zero-ary relations" `Quick test_zero_ary_relations;
    Alcotest.test_case "pretty: quoted symbols roundtrip" `Quick
      test_pretty_quoted_symbols;
    Alcotest.test_case "pretty: lowercase variables as ?x" `Quick
      test_pretty_lowercase_variable;
    Alcotest.test_case "invent fuel failure" `Quick test_invent_fuel_message;
    Alcotest.test_case "noninflationary fuel guard" `Quick
      test_noninflationary_fuel;
    Alcotest.test_case "every divergent engine: one fuel error" `Quick
      test_fuel_exhausted_everywhere;
    Alcotest.test_case "naive/semi-naive stage counts" `Quick
      test_stage_counts_agree;
    Alcotest.test_case "trace length = stages + 1" `Quick
      test_trace_length_matches_stages;
    Alcotest.test_case "order over mixed value types" `Quick
      test_order_mixed_types;
  ]
