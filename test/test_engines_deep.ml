(* Deeper per-engine behaviour: well-founded corner cases, stable models,
   Datalog¬¬ conflict policies, value invention, magic sets,
   semi-positive programs, ordered databases. *)
open Relational
open Helpers
module WF = Datalog.Wellfounded
module NI = Datalog.Noninflationary

let win = prog "win(X) :- moves(X, Y), !win(Y)."

(* --- well-founded -------------------------------------------------------- *)

let test_wf_cycle_all_unknown () =
  let res = WF.eval win (Graph_gen.cycle ~name:"moves" 3) in
  Alcotest.(check int) "no true wins" 0
    (Relation.cardinal (Instance.find "win" res.WF.true_facts));
  Alcotest.(check int) "three unknowns" 3
    (Instance.total_facts (WF.unknown res))

let test_wf_chain_alternates () =
  (* on a chain v0 -> ... -> v(n-1), the last position is lost; truth
     alternates back from it: total model *)
  let n = 6 in
  let res = WF.eval win (Graph_gen.game_chain n) in
  Alcotest.(check bool) "total" true (WF.is_total res);
  List.iteri
    (fun i expected ->
      let tr =
        WF.truth_of res "win" (t [ Graph_gen.vertex i ])
      in
      let got = tr = WF.True in
      if got <> expected then Alcotest.failf "win(n%d) wrong" i)
    (* v5 is stuck (lost); winning alternates walking back from it *)
    [ true; false; true; false; true; false ]

let test_wf_negation_on_edb () =
  let p = prog "p(X) :- e(X), !blocked(X)." in
  let inst = facts "e(a). e(b). blocked(b)." in
  let res = WF.eval p inst in
  Alcotest.(check bool) "total" true (WF.is_total res);
  check_rel "p" (unary [ "a" ]) (Instance.find "p" res.WF.true_facts)

let test_wf_equals_stratified_on_stratifiable () =
  let p =
    prog
      {|
      T(X, Y) :- G(X, Y).
      T(X, Y) :- G(X, Z), T(Z, Y).
      CT(X, Y) :- !T(X, Y).
      isolated(X) :- node(X), !touched(X).
      touched(X) :- G(X, Y).
      touched(Y) :- G(X, Y).
      node(X) :- G(X, Y).
      node(Y) :- G(X, Y).
    |}
  in
  List.iter
    (fun seed ->
      let inst = Graph_gen.random ~seed 9 14 in
      let s = Datalog.Stratified.eval p inst in
      let w = WF.eval p inst in
      Alcotest.(check bool) "total" true (WF.is_total w);
      Alcotest.check instance "stratified = wf true facts"
        s.Datalog.Stratified.instance w.WF.true_facts)
    [ 1; 2; 3; 4; 5 ]

let test_wf_alternating_sequence_monotone () =
  let seq = WF.alternating_sequence win (Graph_gen.paper_game ()) in
  let rec check_mono = function
    | (u1, o1) :: ((u2, o2) :: _ as rest) ->
        Alcotest.(check bool) "under grows" true (Instance.subset u1 u2);
        Alcotest.(check bool) "over shrinks" true (Instance.subset o2 o1);
        check_mono rest
    | _ -> ()
  in
  check_mono seq;
  (* under ⊆ over at every step *)
  List.iter
    (fun (u, o) ->
      Alcotest.(check bool) "under ⊆ over" true (Instance.subset u o))
    seq

(* --- stable models -------------------------------------------------------- *)

let test_stable_of_stratifiable_is_unique () =
  let p = prog "p(X) :- e(X), !q(X). q(X) :- r(X)." in
  let inst = facts "e(a). e(b). r(a)." in
  let models = Datalog.Stable.models p inst in
  Alcotest.(check int) "exactly one" 1 (List.length models);
  let m = List.hd models in
  check_rel "p = {b}" (unary [ "b" ]) (Instance.find "p" m)

let test_stable_two_cycle () =
  (* p :- !q. q :- !p. — two stable models *)
  let p = prog "p(X) :- e(X), !q(X). q(X) :- e(X), !p(X)." in
  let inst = facts "e(a)." in
  let models = Datalog.Stable.models p inst in
  Alcotest.(check int) "two models" 2 (List.length models);
  List.iter
    (fun m -> Alcotest.(check bool) "stable check" true
        (Datalog.Stable.is_stable p inst m))
    models

let test_stable_none () =
  (* p :- !p. — no stable model *)
  let p = prog "p(X) :- e(X), !p(X)." in
  let inst = facts "e(a)." in
  Alcotest.(check int) "no models" 0 (Datalog.Stable.count p inst);
  (* but well-founded assigns unknown *)
  let res = WF.eval p inst in
  Alcotest.(check int) "one unknown" 1 (Instance.total_facts (WF.unknown res))

let test_stable_true_facts_in_all_models () =
  (* the paper's game contains the odd cycle a -> b -> c -> a, so it has
     no stable model at all (odd negative cycles kill stability) *)
  let inst = Graph_gen.paper_game () in
  Alcotest.(check int) "odd cycle: no stable model" 0
    (Datalog.Stable.count win inst);
  (* on a chain the well-founded model is total and is the unique stable
     model; wf-true facts belong to it *)
  let chain = Graph_gen.game_chain 5 in
  let wf = WF.eval win chain in
  (match Datalog.Stable.models win chain with
  | [ m ] ->
      Alcotest.(check bool) "wf-true ⊆ stable" true
        (Instance.subset wf.WF.true_facts m);
      Alcotest.check instance "total wf = stable" wf.WF.true_facts m
  | ms -> Alcotest.failf "expected one stable model, got %d" (List.length ms))

(* --- Datalog¬¬ conflict policies ------------------------------------------ *)

(* one stage derives both p(a) and ¬p(a) *)
let conflict_prog = prog "p(a) :- e(a). !p(a) :- e(a)."
let conflict_inst = facts "e(a)."

let test_policy_pos_priority () =
  match NI.run ~policy:NI.Pos_priority conflict_prog conflict_inst with
  | NI.Fixpoint { instance; _ } ->
      Alcotest.(check bool) "p(a) kept" true
        (Instance.mem_fact "p" (t [ v "a" ]) instance)
  | _ -> Alcotest.fail "expected fixpoint"

let test_policy_neg_priority () =
  match NI.run ~policy:NI.Neg_priority conflict_prog conflict_inst with
  | NI.Fixpoint { instance; _ } ->
      Alcotest.(check bool) "p(a) absent" false
        (Instance.mem_fact "p" (t [ v "a" ]) instance)
  | _ -> Alcotest.fail "expected fixpoint"

let test_policy_noop () =
  (* with noop, p(a) keeps its prior status: absent stays absent *)
  (match NI.run ~policy:NI.Noop conflict_prog conflict_inst with
  | NI.Fixpoint { instance; _ } ->
      Alcotest.(check bool) "absent stays absent" false
        (Instance.mem_fact "p" (t [ v "a" ]) instance)
  | _ -> Alcotest.fail "expected fixpoint");
  match
    NI.run ~policy:NI.Noop conflict_prog (facts "e(a). p(a).")
  with
  | NI.Fixpoint { instance; _ } ->
      Alcotest.(check bool) "present stays present" true
        (Instance.mem_fact "p" (t [ v "a" ]) instance)
  | _ -> Alcotest.fail "expected fixpoint"

let test_policy_error () =
  match NI.run ~policy:NI.Error conflict_prog conflict_inst with
  | NI.Contradiction { pred; _ } -> Alcotest.(check string) "on p" "p" pred
  | _ -> Alcotest.fail "expected contradiction"

let test_negneg_updates_edb () =
  (* input relations in heads: delete all edges out of a *)
  let p = prog "!G(a, Y) :- G(a, Y)." in
  let inst = facts "G(a,b). G(a,c). G(b,c)." in
  let final = NI.eval p inst in
  check_rel "only b->c survives" (pairs [ ("b", "c") ])
    (Instance.find "G" final)

let test_negneg_subsumes_inflationary () =
  (* a Datalog¬ program run under Datalog¬¬ gives the same result *)
  let p =
    prog
      {|
      T(X, Y) :- G(X, Y).
      T(X, Y) :- G(X, Z), T(Z, Y).
    |}
  in
  let inst = Graph_gen.random ~seed:13 8 12 in
  let infl = Datalog.Inflationary.eval p inst in
  let negneg = NI.eval p inst in
  Alcotest.check instance "agree" infl.Datalog.Inflationary.instance negneg

let test_divergence_cycle_states () =
  let flip =
    prog "T(0) :- T(1). !T(1) :- T(1). T(1) :- T(0). !T(0) :- T(0)."
  in
  match NI.run flip (Instance.of_list [ ("T", [ [ i 0 ] ]) ]) with
  | NI.Diverged { period; states; _ } ->
      Alcotest.(check int) "period 2" 2 period;
      Alcotest.(check int) "two cycle states" 2 (List.length states)
  | _ -> Alcotest.fail "expected divergence"

(* --- value invention ------------------------------------------------------ *)

let test_invent_chain_growth () =
  (* each stage invents a successor until fuel: check fuel stops it *)
  let p = prog "next(X, N) :- start(X). next(N, M) :- next(X, N)." in
  match Datalog.Invent.run ~fuel:10 p (facts "start(a).") with
  | exception Fuel.Exhausted { instance; _ } ->
      let invented = List.filter Value.is_invented (Instance.adom instance) in
      Alcotest.(check bool) "kept inventing" true (List.length invented >= 9)
  | _ -> Alcotest.fail "expected fuel exhaustion"

let test_invent_single_firing_per_instantiation () =
  let p = prog "tag(X, N) :- item(X)." in
  let { Datalog.Invent.invented; instance; _ } =
    Datalog.Invent.run p (facts "item(a). item(b). item(c).")
  in
  Alcotest.(check int) "three inventions" 3 invented;
  Alcotest.(check int) "three tags" 3
    (Relation.cardinal (Instance.find "tag" instance))

let test_invent_answer_safety () =
  let p = prog "tag(X, N) :- item(X). shadow(X) :- tag(X, N)." in
  let inst = facts "item(a)." in
  (* answer filters invented tuples; shadow is invention-free *)
  check_rel "shadow safe" (unary [ "a" ])
    (Datalog.Invent.answer p inst "shadow");
  check_rel "tag filtered to nothing" Relation.empty
    (Datalog.Invent.answer p inst "tag");
  match Datalog.Invent.answer_exn p inst "tag" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected safety failure"

(* --- magic sets ------------------------------------------------------------ *)

let magic_tc =
  prog
    {|
    T(X, Y) :- G(X, Y).
    T(X, Y) :- T(X, Z), G(Z, Y).
  |}

let test_magic_matches_full () =
  List.iter
    (fun seed ->
      let inst = Graph_gen.random ~seed 12 25 in
      let query = Datalog.Ast.atom "T" [ Datalog.Ast.sym "n0"; Datalog.Ast.var "Y" ] in
      let full =
        Relation.filter
          (fun t -> Value.equal (Tuple.get t 0) (v "n0"))
          (Datalog.Seminaive.answer magic_tc inst "T")
      in
      let magic = Datalog.Magic.answer magic_tc inst query in
      check_rel (Printf.sprintf "seed %d" seed) full magic)
    [ 1; 2; 3; 4; 5; 6 ]

let test_magic_bound_second_arg () =
  let inst = Graph_gen.chain 10 in
  let query = Datalog.Ast.atom "T" [ Datalog.Ast.var "X"; Datalog.Ast.sym "n9" ] in
  let full =
    Relation.filter
      (fun t -> Value.equal (Tuple.get t 1) (v "n9"))
      (Datalog.Seminaive.answer magic_tc inst "T")
  in
  check_rel "ancestors of n9" full (Datalog.Magic.answer magic_tc inst query)

let test_magic_ground_query () =
  let inst = Graph_gen.chain 6 in
  let yes = Datalog.Ast.atom "T" [ Datalog.Ast.sym "n0"; Datalog.Ast.sym "n5" ] in
  let no = Datalog.Ast.atom "T" [ Datalog.Ast.sym "n5"; Datalog.Ast.sym "n0" ] in
  Alcotest.(check bool) "reachable" false
    (Relation.is_empty (Datalog.Magic.answer magic_tc inst yes));
  Alcotest.(check bool) "unreachable" true
    (Relation.is_empty (Datalog.Magic.answer magic_tc inst no))

let test_magic_all_free_query () =
  let inst = Graph_gen.chain 5 in
  let query = Datalog.Ast.atom "T" [ Datalog.Ast.var "X"; Datalog.Ast.var "Y" ] in
  check_rel "all-free = full"
    (Datalog.Seminaive.answer magic_tc inst "T")
    (Datalog.Magic.answer magic_tc inst query)

let test_magic_rejects_edb_query () =
  match
    Datalog.Magic.rewrite magic_tc (Datalog.Ast.atom "G" [ Datalog.Ast.var "X"; Datalog.Ast.var "Y" ])
  with
  | exception Datalog.Ast.Check_error _ -> ()
  | _ -> Alcotest.fail "expected Check_error"

(* --- semi-positive and order ----------------------------------------------- *)

let test_semipositive_accepts_rejects () =
  let ok = prog "p(X) :- e(X), !blocked(X)." in
  ignore (Datalog.Semipositive.eval ok (facts "e(a). blocked(a)."));
  let bad = prog "p(X) :- e(X), !q(X). q(X) :- e(X)." in
  match Datalog.Semipositive.eval bad (facts "e(a).") with
  | exception Datalog.Semipositive.Not_semipositive _ -> ()
  | _ -> Alcotest.fail "expected rejection"

let test_evenness_with_order () =
  let parity =
    prog
      {|
      odd(X) :- first(X).
      even(X) :- odd(Y), succ(Y, X).
      odd(X) :- even(Y), succ(Y, X).
      is_even() :- last(X), even(X).
    |}
  in
  List.iter
    (fun n ->
      let inst =
        Instance.of_list
          [ ("P", List.init n (fun k -> [ Value.Sym (Printf.sprintf "e%d" k) ])) ]
      in
      let ordered = Order.adjoin ~include_lt:false inst in
      let says =
        not (Relation.is_empty (Datalog.Seminaive.answer parity ordered "is_even"))
      in
      Alcotest.(check bool) (Printf.sprintf "n=%d" n) (n mod 2 = 0) says)
    [ 1; 2; 3; 4; 5; 9; 10 ]

let test_min_max_needed_for_semipositive () =
  (* Theorem 4.7's technicality: first/last cannot be computed by a
     semi-positive program from lt alone — computing "no predecessor"
     needs negation over a derived predicate. We exhibit the stratified
     program that does it, and check it is NOT semi-positive. *)
  let p =
    prog
      {|
      has_pred(X) :- lt(Y, X).
      is_first(X) :- elem(X), !has_pred(X).
    |}
  in
  Alcotest.(check bool) "needs a derived negation" false
    (Datalog.Stratify.is_semipositive p)

let suite =
  [
    Alcotest.test_case "wf: cycle all unknown" `Quick test_wf_cycle_all_unknown;
    Alcotest.test_case "wf: chain alternates, total" `Quick
      test_wf_chain_alternates;
    Alcotest.test_case "wf: edb negation" `Quick test_wf_negation_on_edb;
    Alcotest.test_case "wf = stratified on stratifiable programs" `Quick
      test_wf_equals_stratified_on_stratifiable;
    Alcotest.test_case "wf: alternating sequence monotone" `Quick
      test_wf_alternating_sequence_monotone;
    Alcotest.test_case "stable: stratifiable => unique" `Quick
      test_stable_of_stratifiable_is_unique;
    Alcotest.test_case "stable: two-cycle has two models" `Quick
      test_stable_two_cycle;
    Alcotest.test_case "stable: p :- !p has none" `Quick test_stable_none;
    Alcotest.test_case "stable: wf-true in every model" `Quick
      test_stable_true_facts_in_all_models;
    Alcotest.test_case "¬¬ policy: positive priority" `Quick
      test_policy_pos_priority;
    Alcotest.test_case "¬¬ policy: negative priority" `Quick
      test_policy_neg_priority;
    Alcotest.test_case "¬¬ policy: no-op" `Quick test_policy_noop;
    Alcotest.test_case "¬¬ policy: contradiction" `Quick test_policy_error;
    Alcotest.test_case "¬¬ updates edb relations" `Quick
      test_negneg_updates_edb;
    Alcotest.test_case "¬¬ subsumes inflationary" `Quick
      test_negneg_subsumes_inflationary;
    Alcotest.test_case "¬¬ divergence cycle states" `Quick
      test_divergence_cycle_states;
    Alcotest.test_case "invent: unbounded growth hits fuel" `Quick
      test_invent_chain_growth;
    Alcotest.test_case "invent: one firing per instantiation" `Quick
      test_invent_single_firing_per_instantiation;
    Alcotest.test_case "invent: answer safety" `Quick test_invent_answer_safety;
    Alcotest.test_case "magic = full on random graphs" `Quick
      test_magic_matches_full;
    Alcotest.test_case "magic: bound second argument" `Quick
      test_magic_bound_second_arg;
    Alcotest.test_case "magic: ground queries" `Quick test_magic_ground_query;
    Alcotest.test_case "magic: all-free query" `Quick test_magic_all_free_query;
    Alcotest.test_case "magic: edb query rejected" `Quick
      test_magic_rejects_edb_query;
    Alcotest.test_case "semi-positive accept/reject" `Quick
      test_semipositive_accepts_rejects;
    Alcotest.test_case "evenness with order (Thm 4.7)" `Quick
      test_evenness_with_order;
    Alcotest.test_case "min/max technicality (Thm 4.7)" `Quick
      test_min_max_needed_for_semipositive;
  ]
