(* The resident serve engine: incremental view maintenance (semi-naive
   insertion + DRed retraction) checked against the
   recompute-from-scratch oracle — the same discipline as the parallel
   and safe-range suites — plus the query paths and the wire protocol. *)
open Relational
open Helpers
module Q = QCheck
module E = Server.Engine
module P = Server.Protocol

let count = 100

let prop name arb f =
  QCheck_alcotest.to_alcotest (Q.Test.make ~count ~name arb f)

let atom = Datalog.Parser.parse_atom

(* --- unit: assert / retract / query on transitive closure --------------- *)

let test_assert_retract_roundtrip () =
  let eng = E.create tc_program (facts "G(a, b). G(b, c).") in
  let q s = E.query eng (atom s) in
  check_rel "initial" (pairs [ ("a", "b"); ("a", "c") ]) (q "T(a, Y)");
  let added, derived, _ = E.assert_facts eng (facts "G(c, d).") in
  Alcotest.(check int) "added" 1 added;
  Alcotest.(check int) "derived" 3 derived;
  check_rel "after assert"
    (pairs [ ("a", "b"); ("a", "c"); ("a", "d") ])
    (q "T(a, Y)");
  let added, derived, _ = E.assert_facts eng (facts "G(c, d).") in
  Alcotest.(check int) "duplicate assert adds nothing" 0 added;
  Alcotest.(check int) "duplicate assert derives nothing" 0 derived;
  let removed, overdeleted, rederived = E.retract_facts eng (facts "G(a, b).") in
  Alcotest.(check int) "removed" 1 removed;
  Alcotest.(check int) "overdeleted" 4 overdeleted;
  Alcotest.(check int) "rederived" 0 rederived;
  check_rel "a-cone gone" Relation.empty (q "T(a, Y)");
  check_rel "b-cone intact" (pairs [ ("b", "c"); ("b", "d") ]) (q "T(b, Y)");
  let removed, _, _ = E.retract_facts eng (facts "G(a, b).") in
  Alcotest.(check int) "retracting an absent fact is a no-op" 0 removed

let test_rederivation_diamond () =
  (* a→b→d and a→c→d: retracting one support of T(a, d) must not lose
     it — DRed over-deletes the cone, then re-derivation restores it *)
  let eng = E.create tc_program (facts "G(a, b). G(b, d). G(a, c). G(c, d).") in
  let removed, overdeleted, rederived =
    E.retract_facts eng (facts "G(b, d).")
  in
  Alcotest.(check int) "removed" 1 removed;
  Alcotest.(check bool) "over-deletion reached T(a, d)" true (overdeleted >= 2);
  Alcotest.(check bool) "re-derivation restored it" true (rederived >= 1);
  check_rel "T(a, d) survives via c"
    (pairs [ ("a", "b"); ("a", "c"); ("a", "d") ])
    (E.query eng (atom "T(a, Y)"))

let test_retract_base_of_derivable () =
  (* a base fact that is also rule-derivable loses only its base
     support: the derived copy survives the retraction *)
  let eng = E.create tc_program (facts "G(a, b). G(b, c). T(a, c).") in
  let removed, _, rederived = E.retract_facts eng (facts "T(a, c).") in
  Alcotest.(check int) "removed from the base instance" 1 removed;
  Alcotest.(check bool) "rederived from G" true (rederived >= 1);
  Alcotest.(check bool) "gone from the base instance" false
    (Instance.mem_fact "T" (t [ v "a"; v "c" ]) (E.edb eng));
  check_rel "still derived"
    (pairs [ ("a", "b"); ("a", "c") ])
    (E.query eng (atom "T(a, Y)"))

let test_retract_readd () =
  let eng = E.create tc_program (facts "G(a, b). G(b, c).") in
  ignore (E.retract_facts eng (facts "G(b, c)."));
  ignore (E.assert_facts eng (facts "G(b, c)."));
  check_rel "restored"
    (pairs [ ("a", "b"); ("a", "c") ])
    (E.query eng (atom "T(a, Y)"))

(* --- unit: DRed against the recompute oracle on cycles and dense TC ------ *)

(* the engine's materialization must equal a from-scratch semi-naive run
   on the post-update base instance [base] *)
let check_recompute msg base eng =
  let oracle =
    (Datalog.Seminaive.eval tc_program base).Datalog.Seminaive.instance
  in
  Alcotest.check instance msg oracle (E.instance eng)

let retract_matches_recompute base gone () =
  let eng = E.create tc_program base in
  ignore (E.retract_facts eng gone);
  check_recompute "maintained = recomputed" (Instance.diff base gone) eng

(* a ⇄ b: after G(b, a) goes, every fact of the cycle must go too,
   though each still has a derivation through the other *)
let test_cycle_garbage_collected =
  retract_matches_recompute
    (facts "G(a, b). G(b, a). G(e, a).")
    (facts "G(b, a).")

let test_self_loop =
  retract_matches_recompute (facts "G(a, a). G(a, b).") (facts "G(a, a).")

(* complete graph: every fact supports every other; the closure of the
   complete-minus-one graph is still total *)
let test_dense_tc_single_edge =
  retract_matches_recompute (Graph_gen.complete 6)
    (Instance.add_fact "G"
       (Tuple.of_list [ Graph_gen.vertex 0; Graph_gen.vertex 1 ])
       Instance.empty)

let test_assert_derived_then_retract () =
  (* asserting an already-derived fact gives it base support; retracting
     that base copy withdraws only the support, and whatever DRed
     over-deletes it re-derives *)
  let eng = E.create tc_program (facts "G(a, b).") in
  ignore (E.assert_facts eng (facts "G(b, c). G(c, d)."));
  let added, derived, _ = E.assert_facts eng (facts "T(a, c).") in
  Alcotest.(check int) "base support added" 1 added;
  Alcotest.(check int) "nothing new derived" 0 derived;
  let removed, overdeleted, rederived = E.retract_facts eng (facts "T(a, c).") in
  Alcotest.(check int) "base support withdrawn" 1 removed;
  Alcotest.(check int) "still derived, nothing deleted" overdeleted rederived;
  check_recompute "after retracting the base copy"
    (facts "G(a, b). G(b, c). G(c, d).")
    eng

let test_query_paths_agree () =
  let eng = E.create tc_program (facts "G(a, b). G(b, c). G(c, a).") in
  ignore (E.assert_facts eng (facts "G(c, d)."));
  ignore (E.retract_facts eng (facts "G(c, a)."));
  List.iter
    (fun qs ->
      let q = atom qs in
      let m = E.query eng ~via:E.Materialized q in
      check_rel ("demand agrees on " ^ qs) m (E.query eng ~via:E.Demand q))
    [ "T(a, Y)"; "T(X, d)"; "T(X, X)"; "T(X, Y)" ]

let test_requires_datalog () =
  match E.create (prog "p(X) :- e(X), !q(X).") Instance.empty with
  | exception Datalog.Ast.Check_error _ -> ()
  | _ -> Alcotest.fail "negation must be rejected at create"

(* --- the wire protocol --------------------------------------------------- *)

let test_protocol_roundtrip () =
  List.iter
    (fun r ->
      match P.parse_request (P.encode_request r) with
      | Ok r' -> Alcotest.(check bool) "roundtrip" true (r = r')
      | Error e -> Alcotest.fail e)
    [
      P.Assert "G(a, b). G(b, c).";
      P.Retract "G(\"quoted \\\"x\\\"\", b).";
      P.Query { atom = "T(a, Y)"; via = "demand" };
      P.Stats;
      P.Shutdown;
    ]

let test_handle_errors () =
  let eng = E.create tc_program (facts "G(a, b).") in
  let bad ?msg line =
    let resp, keep = Server.Daemon.handle eng line in
    Alcotest.(check bool) ("keeps serving after " ^ line) true keep;
    match P.parse_response resp with
    | Error e ->
        Option.iter
          (fun m -> Alcotest.(check string) ("error for " ^ line) m e)
          msg
    | Ok _ -> Alcotest.failf "expected a protocol error for %s" line
  in
  bad "this is not json";
  bad {|{"op":"frobnicate"}|};
  bad {|{"op":"assert"}|};
  bad {|{"op":"assert","facts":"G(a"}|};
  bad {|{"op":"assert","facts":"G(a)."}|};
  bad {|{"op":"query","atom":"T(a, Y)","via":"warp"}|};
  (* serve has two query paths; "magic" is not one of them *)
  bad ~msg:{|unknown via "magic" (expected materialized or demand)|}
    {|{"op":"query","atom":"T(a, Y)","via":"magic"}|};
  bad {|{"op":"query","atom":"T("}|};
  (* a wrong-arity atom is a checked error on the demand path *)
  bad ~msg:"Magic.rewrite: T has arity 2, query gives 1"
    {|{"op":"query","atom":"T(a)","via":"demand"}|};
  (* a batch mixing arities names the offending line *)
  bad ~msg:"facts line 2: G has arity 2, got 1 argument(s)"
    {|{"op":"assert","facts":"G(b, c).\nG(c)."}|};
  (* the engine survived all of it *)
  let resp, keep = Server.Daemon.handle eng {|{"op":"query","atom":"T(a, Y)"}|} in
  Alcotest.(check bool) "alive" true keep;
  match P.parse_response resp with
  | Ok j -> (
      match Observe.Json.member "count" j with
      | Some (Observe.Json.Int 1) -> ()
      | _ -> Alcotest.fail "expected one answer")
  | Error e -> Alcotest.fail e

(* --- property: random schedules vs recompute-from-scratch ---------------- *)

(* Same rule pool as the demand suite: closures over edb g/2, e/1 with
   idb t, s, d (binary) and p (unary). *)
let rule_pool =
  [|
    "t(X, Y) :- g(X, Y).";
    "t(X, Y) :- t(X, Z), g(Z, Y).";
    "s(X, Y) :- g(X, Y).";
    "s(X, Y) :- g(X, Z), s(Z, Y).";
    "d(X, Y) :- t(X, Y).";
    "d(X, Z) :- d(X, Y), d(Y, Z).";
    "p(X) :- t(X, X).";
    "p(Y) :- g(X, Y), p(X).";
    "p(X) :- e(X).";
  |]

type op =
  | Assert_g of int * int
  | Retract_g of int * int
  | Assert_e of int
  | Retract_e of int

let pp_op = function
  | Assert_g (i, j) -> Printf.sprintf "+g(%d,%d)" i j
  | Retract_g (i, j) -> Printf.sprintf "-g(%d,%d)" i j
  | Assert_e i -> Printf.sprintf "+e(%d)" i
  | Retract_e i -> Printf.sprintf "-e(%d)" i

(* A scenario: a sampled sub-program, a small random instance, and a
   schedule of assert/retract ops over a slightly larger vertex space —
   so retractions hit present and absent facts, and asserts duplicate
   existing facts now and then. *)
let scenario_gen =
  Q.Gen.(
    let* mask = list_repeat (Array.length rule_pool) bool in
    let chosen =
      List.concat
        (List.mapi (fun i k -> if k then [ rule_pool.(i) ] else []) mask)
    in
    let* n = 1 -- 6 in
    let* edges = 0 -- 10 in
    let* seed = 0 -- 10_000 in
    let g = Graph_gen.random ~name:"g" ~seed n edges in
    let* ne = 0 -- n in
    let inst =
      Instance.set "e"
        (Relation.of_rows (List.init ne (fun i -> [ Graph_gen.vertex i ])))
        g
    in
    let op_gen =
      frequency
        [
          (3, map2 (fun i j -> Assert_g (i, j)) (0 -- (n + 1)) (0 -- (n + 1)));
          (3, map2 (fun i j -> Retract_g (i, j)) (0 -- (n + 1)) (0 -- (n + 1)));
          (1, map (fun i -> Assert_e i) (0 -- (n + 1)));
          (1, map (fun i -> Retract_e i) (0 -- (n + 1)));
        ]
    in
    let* nops = 1 -- 12 in
    let* ops = list_repeat nops op_gen in
    return (prog (String.concat "\n" chosen), inst, ops))

let scenario_arb =
  Q.make
    ~print:(fun (p, i, ops) ->
      Printf.sprintf "program:\n%s\ninstance:\n%s\nschedule: %s"
        (Datalog.Pretty.program_to_string p)
        (Instance.to_string i)
        (String.concat " " (List.map pp_op ops)))
    scenario_gen

let op_batch = function
  | Assert_g (i, j) | Retract_g (i, j) ->
      ("g", Tuple.of_list [ Graph_gen.vertex i; Graph_gen.vertex j ])
  | Assert_e i | Retract_e i -> ("e", Tuple.of_list [ Graph_gen.vertex i ])

(* A demand query and its immediate repeat answer exactly the
   materialized view, for every idb predicate bound at [n0] — each runs
   magic sets on the engine's base facts, which must follow every
   version the schedule produces. *)
let demand_agrees eng p =
  List.for_all
    (fun pred ->
      let q =
        atom
          (if String.equal pred "p" then "p(n0)" else pred ^ "(n0, Y)")
      in
      let m = E.query eng ~via:E.Materialized q in
      Relation.equal m (E.query eng ~via:E.Demand q)
      && Relation.equal m (E.query eng ~via:E.Demand q))
    (Datalog.Ast.idb p)

(* After every op the engine's materialization must be byte-identical to
   re-running semi-naive evaluation from scratch on the oracle's EDB, and
   the demand path must agree with it. *)
let prop_schedule_matches_recompute (p, inst0, ops) =
  let eng = E.create p inst0 in
  let edb = ref inst0 in
  List.for_all
    (fun op ->
      let pred, tup = op_batch op in
      let batch = Instance.add_fact pred tup Instance.empty in
      (match op with
      | Assert_g _ | Assert_e _ ->
          edb := Instance.add_fact pred tup !edb;
          ignore (E.assert_facts eng batch)
      | Retract_g _ | Retract_e _ ->
          if Instance.mem_fact pred tup !edb then
            edb := Instance.remove_fact pred tup !edb;
          ignore (E.retract_facts eng batch));
      let oracle = (Datalog.Seminaive.eval p !edb).Datalog.Seminaive.instance in
      let got = E.instance eng in
      Instance.equal got oracle
      && String.equal (Instance.to_string got) (Instance.to_string oracle)
      && demand_agrees eng p)
    ops

(* The engine's base instance must track exactly the oracle EDB, whatever
   mix of present/absent facts the schedule retracts. *)
let prop_edb_tracks_schedule (p, inst0, ops) =
  let eng = E.create p inst0 in
  let edb = ref inst0 in
  List.iter
    (fun op ->
      let pred, tup = op_batch op in
      let batch = Instance.add_fact pred tup Instance.empty in
      match op with
      | Assert_g _ | Assert_e _ ->
          edb := Instance.add_fact pred tup !edb;
          ignore (E.assert_facts eng batch)
      | Retract_g _ | Retract_e _ ->
          if Instance.mem_fact pred tup !edb then
            edb := Instance.remove_fact pred tup !edb;
          ignore (E.retract_facts eng batch))
    ops;
  Instance.equal (E.edb eng) !edb

let suite =
  [
    Alcotest.test_case "assert/retract roundtrip" `Quick
      test_assert_retract_roundtrip;
    Alcotest.test_case "DRed rederivation (diamond)" `Quick
      test_rederivation_diamond;
    Alcotest.test_case "retract base fact with derived support" `Quick
      test_retract_base_of_derivable;
    Alcotest.test_case "retract then re-add" `Quick test_retract_readd;
    Alcotest.test_case "cycle garbage collected" `Quick
      test_cycle_garbage_collected;
    Alcotest.test_case "self-loop" `Quick test_self_loop;
    Alcotest.test_case "dense TC, single-edge retraction" `Quick
      test_dense_tc_single_edge;
    Alcotest.test_case "assert a derived fact, retract its base copy" `Quick
      test_assert_derived_then_retract;
    Alcotest.test_case "query paths agree" `Quick test_query_paths_agree;
    Alcotest.test_case "non-Datalog rejected" `Quick test_requires_datalog;
    Alcotest.test_case "protocol roundtrip" `Quick test_protocol_roundtrip;
    Alcotest.test_case "malformed requests don't kill the engine" `Quick
      test_handle_errors;
    prop "random schedules ≡ recompute-from-scratch" scenario_arb
      prop_schedule_matches_recompute;
    prop "base instance tracks the schedule" scenario_arb
      prop_edb_tracks_schedule;
  ]
