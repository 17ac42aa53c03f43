(* Distributed Datalog (netlog): located facts, schedules, and the CALM
   confluence observation (§6 of the paper). *)
open Relational
open Helpers
module N = Distributed.Netlog

let lrule ?(location = N.Local) src =
  { N.location; rule = Datalog.Parser.parse_rule src }

(* a 3-peer chain computing distributed transitive closure: each peer
   owns some edges; derived reach facts are routed to the peer owning the
   source node (encoded here by sending everything to a coordinator) *)
let tc_network =
  {
    N.peers = [ "p1"; "p2"; "coord" ];
    programs =
      [
        ( "p1",
          [
            lrule ~location:(N.At_peer "coord") "reach(X, Y) :- edge(X, Y).";
          ] );
        ( "p2",
          [
            lrule ~location:(N.At_peer "coord") "reach(X, Y) :- edge(X, Y).";
          ] );
        ( "coord",
          [ lrule "reach(X, Y) :- reach(X, Z), reach(Z, Y)." ] );
      ];
    stores =
      [
        ("p1", facts "edge(a, b). edge(b, c).");
        ("p2", facts "edge(c, d). edge(d, e).");
      ];
  }

let test_distributed_tc () =
  (* [run] returns only at quiescence *)
  let out = N.run tc_network in
  let reach = Instance.find "reach" (N.store out "coord") in
  let all_edges =
    Relation.union
      (Instance.find "edge" (facts "edge(a,b). edge(b,c). edge(c,d). edge(d,e)."))
      Relation.empty
  in
  check_rel "distributed TC" (Graph_gen.reference_tc all_edges) reach;
  Alcotest.(check bool) "messages flowed" true (out.N.messages >= 4)

let test_monotone_confluent () =
  (* CALM, positive direction: negation-free network converges to the
     same state under every schedule *)
  Alcotest.(check bool) "confluent" true (N.confluent tc_network)

let test_nonmonotone_schedule_dependent () =
  (* two peers race to set a flag; each blocks on the other's flag via
     negation — the outcome depends on who is activated first *)
  let racing =
    {
      N.peers = [ "a"; "b" ];
      programs =
        [
          ( "a",
            [
              lrule ~location:(N.At_peer "b") "blocked(a2) :- start(X), !blocked(b2).";
            ] );
          ( "b",
            [
              lrule ~location:(N.At_peer "a") "blocked(b2) :- start(X), !blocked(a2).";
            ] );
        ];
      stores = [ ("a", facts "start(go)."); ("b", facts "start(go).") ];
    }
  in
  (* under round-robin, a fires first and blocks b... both can still fire
     in the same round before messages land; what matters here is that
     SOME schedules disagree *)
  let outcomes =
    List.sort_uniq Instance.compare
      (List.map
         (fun s -> N.global (N.run ~schedule:s racing))
         [ N.Round_robin; N.Random_sched 1; N.Random_sched 2;
           N.Random_sched 3; N.Random_sched 4; N.Random_sched 5;
           N.Random_sched 6 ])
  in
  Alcotest.(check bool) "schedule-dependent" true (List.length outcomes >= 2);
  Alcotest.(check bool) "confluence check fails" false (N.confluent racing)

let test_variable_location_routing () =
  (* Webdamlog-style routing: deliver each fact to the peer named in the
     data *)
  let router =
    {
      N.peers = [ "hub"; "alice"; "bob" ];
      programs =
        [
          ("hub", [ lrule ~location:(N.At_var "P") "msg(M) :- outbox(P, M)." ]);
        ];
      stores =
        [ ("hub", facts "outbox(alice, hello). outbox(bob, hi). outbox(alice, bye).") ];
    }
  in
  let out = N.run router in
  check_rel "alice got hers" (unary [ "bye"; "hello" ])
    (Instance.find "msg" (N.store out "alice"));
  check_rel "bob got his" (unary [ "hi" ])
    (Instance.find "msg" (N.store out "bob"))

let test_network_validation () =
  (match
     N.check
       {
         N.peers = [ "a" ];
         programs = [ ("zz", [ lrule "p(X) :- q(X)." ]) ];
         stores = [];
       }
   with
  | exception N.Bad_network _ -> ()
  | _ -> Alcotest.fail "unknown program peer");
  (match
     N.check
       {
         N.peers = [ "a" ];
         programs = [ ("a", [ lrule ~location:(N.At_peer "zz") "p(X) :- q(X)." ]) ];
         stores = [];
       }
   with
  | exception N.Bad_network _ -> ()
  | _ -> Alcotest.fail "unknown target peer");
  match
    N.check
      {
        N.peers = [ "a" ];
        programs = [ ("a", [ lrule ~location:(N.At_var "Z") "p(X) :- q(X)." ]) ];
        stores = [];
      }
  with
  | exception N.Bad_network _ -> ()
  | _ -> Alcotest.fail "location var must occur in body"

let test_fuel () =
  (* a two-peer ping-pong that generates fresh work forever cannot exist
     without invention — facts saturate, so every network quiesces; the
     fuel path is still exercised by a tiny budget *)
  match N.run ~fuel:1 tc_network with
  | exception Fuel.Exhausted { engine = "netlog"; budget = 1; _ } -> ()
  | _ -> Alcotest.fail "one activation cannot quiesce the TC network"

let suite =
  [
    Alcotest.test_case "distributed TC" `Quick test_distributed_tc;
    Alcotest.test_case "CALM: monotone => confluent" `Quick
      test_monotone_confluent;
    Alcotest.test_case "negation => schedule-dependent" `Quick
      test_nonmonotone_schedule_dependent;
    Alcotest.test_case "variable-location routing" `Quick
      test_variable_location_routing;
    Alcotest.test_case "network validation" `Quick test_network_validation;
    Alcotest.test_case "fuel bound" `Quick test_fuel;
  ]
