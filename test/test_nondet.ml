(* Nondeterministic languages: Definition 5.2 semantics, effect
   enumeration, ⊥/∀ constructs, poss/cert, Examples 5.4/5.5. *)
open Relational
open Helpers
module Nd = Nondet.Nd_eval
module En = Nondet.Enumerate
module Pc = Nondet.Posscert

let orientation = prog "!G(X, Y) :- G(X, Y), G(Y, X)."

let test_successors_one_firing () =
  let inst = Graph_gen.two_cycles 1 in
  let { Nd.changed; bottom_applicable } = Nd.successors orientation inst in
  (* exactly two choices: delete a0->b0 or b0->a0 *)
  Alcotest.(check int) "two successors" 2 (List.length changed);
  Alcotest.(check bool) "no bottom" false bottom_applicable;
  List.iter
    (fun j ->
      Alcotest.(check int) "one edge deleted" 1
        (Relation.cardinal (Instance.find "G" j)))
    changed

let test_terminal_detection () =
  Alcotest.(check bool) "2-cycle not terminal" false
    (Nd.is_terminal orientation (Graph_gen.two_cycles 1));
  Alcotest.(check bool) "acyclic graph terminal" true
    (Nd.is_terminal orientation (Graph_gen.chain 4))

let test_random_walks_land_in_effect () =
  let inst = Graph_gen.two_cycles 3 in
  let terminals = En.terminals orientation inst in
  List.iter
    (fun seed ->
      match Nd.run ~seed orientation inst with
      | Nd.Terminal { instance; steps } ->
          Alcotest.(check int) "three firings" 3 steps;
          Alcotest.(check bool) "walk result in effect" true
            (List.exists (Instance.equal instance) terminals)
      | _ -> Alcotest.fail "expected terminal")
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let test_effect_counts () =
  List.iter
    (fun k ->
      let stats = En.effect orientation (Graph_gen.two_cycles k) in
      Alcotest.(check int)
        (Printf.sprintf "2^%d orientations" k)
        (1 lsl k)
        (List.length stats.En.terminals))
    [ 0; 1; 2; 3; 4 ]

let test_effect_budget () =
  match En.effect ~fuel:10 orientation (Graph_gen.two_cycles 6) with
  | exception Fuel.Exhausted { engine = "nondet.enumerate"; budget = 10; _ } ->
      ()
  | _ -> Alcotest.fail "expected budget exhaustion"

(* multi-literal heads fire atomically *)
let test_multi_head_atomic () =
  let p = prog "chosen(X), !candidate(X) :- candidate(X)." in
  let inst = facts "candidate(a). candidate(b)." in
  let terminals = En.terminals p inst in
  (* every run moves BOTH candidates into chosen (one at a time); single
     terminal state *)
  Alcotest.(check int) "one terminal" 1 (List.length terminals);
  let j = List.hd terminals in
  check_rel "all chosen" (unary [ "a"; "b" ]) (Instance.find "chosen" j);
  check_rel "none left" Relation.empty (Instance.find "candidate" j)

(* pick-one: nondeterministic choice of a single element *)
let test_pick_one () =
  let p =
    prog "picked(X), done() :- candidate(X), !done()."
  in
  let inst = facts "candidate(a). candidate(b). candidate(c)." in
  let terminals = En.terminals p inst in
  Alcotest.(check int) "three possible picks" 3 (List.length terminals);
  List.iter
    (fun j ->
      Alcotest.(check int) "exactly one picked" 1
        (Relation.cardinal (Instance.find "picked" j)))
    terminals

(* inconsistent heads are not fireable (condition (ii) of Def 5.1) *)
let test_inconsistent_head_skipped () =
  let p = prog "p(X), !p(X) :- e(X)." in
  let inst = facts "e(a)." in
  Alcotest.(check bool) "terminal immediately" true (Nd.is_terminal p inst)

(* Example 5.4 / 5.5: P − π_A(Q) *)
let p_minus_proj_inst = facts "P(a). P(b). P(c). Q(a, x). Q(c, y)."
let expected_diff = unary [ "b" ]

let test_example_55_bottom () =
  let p =
    prog
      {|
      PROJ(X) :- !done_with_proj(), Q(X, Y).
      done_with_proj().
      bottom :- done_with_proj(), Q(X, Y), !PROJ(X).
      answer(X) :- done_with_proj(), P(X), !PROJ(X).
    |}
  in
  Datalog.Ast.check_ndatalog_bottom p;
  let stats = En.effect p p_minus_proj_inst in
  (* all surviving terminal states agree on answer = P - π(Q) *)
  Alcotest.(check bool) "some survivor" true (stats.En.terminals <> []);
  List.iter
    (fun j -> check_rel "answer" expected_diff (Instance.find "answer" j))
    stats.En.terminals;
  Alcotest.(check bool) "some branches were abandoned" true
    (stats.En.abandoned_branches > 0)

let test_example_55_forall () =
  let p = prog "answer(X) :- forall Y : P(X), !Q(X, Y)." in
  Datalog.Ast.check_ndatalog_forall p;
  let terminals = En.terminals p p_minus_proj_inst in
  Alcotest.(check int) "deterministic" 1 (List.length terminals);
  check_rel "answer" expected_diff
    (Instance.find "answer" (List.hd terminals))

(* the ⊥ random walk abandons and retries *)
let test_run_until_terminal () =
  let p =
    prog
      {|
      PROJ(X) :- !done_with_proj(), Q(X, Y).
      done_with_proj().
      bottom :- done_with_proj(), Q(X, Y), !PROJ(X).
      answer(X) :- done_with_proj(), P(X), !PROJ(X).
    |}
  in
  match Nd.run_until_terminal ~seed:5 p p_minus_proj_inst with
  | Some j -> check_rel "answer" expected_diff (Instance.find "answer" j)
  | None -> Alcotest.fail "no terminal found in 100 attempts"

(* --- poss / cert ----------------------------------------------------------- *)

let test_poss_cert_orientation () =
  let inst = Graph_gen.two_cycles 2 in
  let poss = Pc.poss orientation inst in
  let cert = Pc.cert orientation inst in
  Alcotest.(check int) "poss keeps all edges" 4
    (Relation.cardinal (Instance.find "G" poss));
  Alcotest.(check int) "cert keeps none" 0
    (Relation.cardinal (Instance.find "G" cert));
  Alcotest.(check bool) "cert ⊆ poss" true (Instance.subset cert poss)

let test_poss_cert_deterministic_program () =
  (* on a deterministic program poss = cert = the unique result *)
  let p = prog "p(X), !e(X) :- e(X)." in
  let inst = facts "e(a). e(b)." in
  let poss = Pc.poss p inst and cert = Pc.cert p inst in
  Alcotest.check instance "poss = cert" poss cert;
  check_rel "all moved" (unary [ "a"; "b" ]) (Instance.find "p" poss)

let test_constructs_flavors () =
  let neg_ok = prog "p(X) :- e(X), !q(X)." in
  Nondet.Constructs.check Nondet.Constructs.Neg neg_ok;
  (match Nondet.Constructs.check Nondet.Constructs.Neg (prog "!p(X) :- p(X).") with
  | exception Datalog.Ast.Check_error _ -> ()
  | _ -> Alcotest.fail "neg flavor must reject retraction");
  Nondet.Constructs.check Nondet.Constructs.Negneg (prog "!p(X) :- p(X).");
  Nondet.Constructs.check Nondet.Constructs.Bottom (prog "bottom :- p(X).");
  Nondet.Constructs.check Nondet.Constructs.Forall
    (prog "a(X) :- forall Y : p(X), !q(X, Y).")

let suite =
  [
    Alcotest.test_case "one firing at a time" `Quick
      test_successors_one_firing;
    Alcotest.test_case "terminal detection" `Quick test_terminal_detection;
    Alcotest.test_case "random walks land in effect" `Quick
      test_random_walks_land_in_effect;
    Alcotest.test_case "effect counts (2^k)" `Quick test_effect_counts;
    Alcotest.test_case "state budget enforced" `Quick test_effect_budget;
    Alcotest.test_case "multi-literal heads atomic" `Quick
      test_multi_head_atomic;
    Alcotest.test_case "nondeterministic pick-one" `Quick test_pick_one;
    Alcotest.test_case "inconsistent heads skipped" `Quick
      test_inconsistent_head_skipped;
    Alcotest.test_case "Example 5.5: N-Datalog¬⊥" `Quick test_example_55_bottom;
    Alcotest.test_case "Example 5.5: N-Datalog¬∀" `Quick test_example_55_forall;
    Alcotest.test_case "run_until_terminal retries ⊥" `Quick
      test_run_until_terminal;
    Alcotest.test_case "poss/cert on orientations" `Quick
      test_poss_cert_orientation;
    Alcotest.test_case "poss = cert when deterministic" `Quick
      test_poss_cert_deterministic_program;
    Alcotest.test_case "flavor checks" `Quick test_constructs_flavors;
  ]
