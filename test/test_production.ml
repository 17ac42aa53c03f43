(* Production-rule layer: recognize-act cycle, strategies, refraction. *)
open Relational
open Helpers
module P = Datalog.Production

let rules =
  prog
    {|
      reserved(Item, Cust), !stock(Item) :- order(Cust, Item), stock(Item).
      shipped(Item, Cust), !reserved(Item, Cust) :-
        reserved(Item, Cust), carrier_ready.
      backorder(Cust, Item) :-
        order(Cust, Item), !stock(Item),
        !reserved(Item, Cust), !shipped(Item, Cust).
    |}

let memory =
  facts
    {|
      order(alice, widget). order(bob, widget).
      stock(widget). carrier_ready().
    |}

let shipped res = Instance.find "shipped" res.P.memory
let backordered res = Instance.find "backorder" res.P.memory

let test_first_match_deterministic () =
  let r1 = P.run ~strategy:P.First rules memory in
  let r2 = P.run ~strategy:P.First rules memory in
  Alcotest.check instance "deterministic" r1.P.memory r2.P.memory;
  Alcotest.(check int) "one shipment" 1 (Relation.cardinal (shipped r1));
  Alcotest.(check int) "one backorder" 1 (Relation.cardinal (backordered r1))

let test_random_seeded () =
  let r1 = P.run ~strategy:(P.Random 1) rules memory in
  let r2 = P.run ~strategy:(P.Random 1) rules memory in
  Alcotest.check instance "same seed same run" r1.P.memory r2.P.memory;
  Alcotest.(check int) "one shipment" 1 (Relation.cardinal (shipped r1))

let test_all_strategies_quiesce_consistently () =
  List.iter
    (fun s ->
      let r = P.run ~strategy:s rules memory in
      Alcotest.(check int) "one shipment" 1 (Relation.cardinal (shipped r));
      Alcotest.(check int) "one backorder" 1
        (Relation.cardinal (backordered r));
      Alcotest.(check int) "stock exhausted" 0
        (Relation.cardinal (Instance.find "stock" r.P.memory)))
    [ P.First; P.Random 7; P.Recency; P.Specificity ]

let test_trace_records_firings () =
  let r = P.run rules memory in
  Alcotest.(check int) "cycles = trace length" r.P.cycles
    (List.length r.P.trace);
  (* the first firing must be the reservation rule (only applicable one) *)
  match r.P.trace with
  | f :: _ ->
      Alcotest.(check int) "rule 0 first" 0 f.P.rule_index;
      Alcotest.(check int) "one assert" 1 (List.length f.P.asserted);
      Alcotest.(check int) "one retract" 1 (List.length f.P.retracted)
  | [] -> Alcotest.fail "empty trace"

let test_refraction_stops_assert_only_rules () =
  (* without refraction this rule would fire forever under no-op
     skipping... actually the no-change filter already stops it; refraction
     matters when a rule's firing keeps re-enabling itself indirectly. *)
  let p = prog "mark(X) :- e(X)." in
  let r = P.run p (facts "e(a). e(b).") in
  Alcotest.(check int) "two cycles" 2 r.P.cycles

let test_retract_reassert_refires () =
  (* toggle: consuming a trigger fact re-asserted by another rule refires
     thanks to epoch-based refraction *)
  let p =
    prog
      {|
      !pulse(), count(X) :- pulse(), next(X), !count(X).
      pulse() :- count(X), !pulse(), !done2().
      done2() :- count(a), count(b).
    |}
  in
  (* not a precise protocol — just check quiescence without failure *)
  let r = P.run ~fuel:100 p (facts "pulse(). next(a). next(b).") in
  Alcotest.(check bool) "quiesced" true (r.P.cycles <= 100)

let test_fuel_exhaustion () =
  (* two rules that keep toggling a fact never quiesce *)
  let p = prog "on() , !off() :- off(). off(), !on() :- on()." in
  match P.run ~fuel:20 p (facts "on().") with
  | exception Fuel.Exhausted { engine = "production"; budget = 20; _ } -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion"

let suite =
  [
    Alcotest.test_case "first-match deterministic" `Quick
      test_first_match_deterministic;
    Alcotest.test_case "random strategy seeded" `Quick test_random_seeded;
    Alcotest.test_case "all strategies quiesce consistently" `Quick
      test_all_strategies_quiesce_consistently;
    Alcotest.test_case "trace records firings" `Quick
      test_trace_records_firings;
    Alcotest.test_case "assert-only rules stop" `Quick
      test_refraction_stops_assert_only_rules;
    Alcotest.test_case "retract/re-assert refires" `Quick
      test_retract_reassert_refires;
    Alcotest.test_case "fuel exhaustion detected" `Quick test_fuel_exhaustion;
  ]
