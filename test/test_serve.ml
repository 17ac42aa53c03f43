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

(* [instance] publishes T by lending it the engine's membership set. The
   instance kept from right after [create] must not change while the
   engine writes, and the engine must match the recompute oracle after
   every write. *)
let snapshot_survives base schedule () =
  let eng = E.create tc_program base in
  let snap = E.instance eng in
  let vertices = Instance.adom base @ [ v "z" ] in
  let pairs =
    List.concat_map (fun x -> List.map (fun y -> t [ x; y ]) vertices) vertices
  in
  let t0 = Instance.find "T" snap in
  let text = Instance.to_string snap in
  let card = Relation.cardinal t0 in
  let mems = List.map (fun x -> Relation.mem x t0) pairs in
  let base = ref base in
  List.iter
    (fun (op, src) ->
      let batch = facts src in
      (match op with
      | `Assert ->
          base := Instance.union !base batch;
          ignore (E.assert_facts eng batch)
      | `Retract ->
          base := Instance.diff !base batch;
          ignore (E.retract_facts eng batch));
      let t0' = Instance.find "T" snap in
      Alcotest.(check string) ("snapshot text after " ^ src) text
        (Instance.to_string snap);
      Alcotest.(check int) ("snapshot T size after " ^ src) card
        (Relation.cardinal t0');
      Alcotest.(check (list bool)) ("snapshot T membership after " ^ src) mems
        (List.map (fun x -> Relation.mem x t0') pairs);
      check_recompute ("maintained = recomputed after " ^ src) !base eng)
    schedule

let test_snapshot_cyclic =
  snapshot_survives
    (facts "G(a, b). G(b, c). G(c, a). G(c, d).")
    [
      (`Assert, "G(d, e).");
      (`Retract, "G(c, a).");
      (`Assert, "T(e, z).");
      (`Assert, "G(c, a).");
      (`Retract, "G(a, b). T(e, z).");
      (`Retract, "G(b, c).");
    ]

let test_snapshot_acyclic =
  snapshot_survives
    (facts "G(a, b). G(b, c). G(c, d). G(a, e).")
    [
      (`Retract, "G(b, c).");
      (`Assert, "G(e, c).");
      (`Assert, "T(d, z).");
      (`Retract, "G(a, b). G(a, e).");
      (`Assert, "G(a, b).");
    ]

let test_query_paths_agree () =
  let eng = E.create tc_program (facts "G(a, b). G(b, c). G(c, a).") in
  ignore (E.assert_facts eng (facts "G(c, d)."));
  ignore (E.retract_facts eng (facts "G(c, a)."));
  (* a stored fact of the idb predicate: T(a, z) and T(b, z) follow *)
  ignore (E.assert_facts eng (facts "T(c, z)."));
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

(* Every exception a request can raise becomes an error reply: the
   expected failures keep their own message, any other is "internal"
   and counted under its constructor, never under the errors count's
   name. *)
let test_exceptions_become_errors () =
  let tr = Observe.Trace.make () in
  let msg e = Server.Daemon.error_message ~trace:tr e in
  Alcotest.(check string) "Failure keeps its message" "boom"
    (msg (Failure "boom"));
  Alcotest.(check string) "Invalid_argument keeps its message" "arity"
    (msg (Invalid_argument "arity"));
  Alcotest.(check (list (pair string int))) "expected failures count nothing"
    [] (Observe.Trace.counters tr);
  Alcotest.(check string) "Not_found" "internal: Not_found" (msg Not_found);
  Alcotest.(check string) "Stack_overflow" "internal: Stack overflow"
    (msg Stack_overflow);
  Alcotest.(check string) "Out_of_memory" "internal: Out of memory"
    (msg Out_of_memory);
  ignore (msg Not_found);
  Alcotest.(check (list (pair string int)))
    "one counter per constructor"
    [
      ("serve.exn.Not_found", 2);
      ("serve.exn.Out_of_memory", 1);
      ("serve.exn.Stack_overflow", 1);
    ]
    (Observe.Trace.counters tr);
  (* a reply built from one is a protocol error, and the loop goes on *)
  match
    P.parse_response (P.error_response (Server.Daemon.error_message Not_found))
  with
  | Error e -> Alcotest.(check string) "reply" "internal: Not_found" e
  | Ok _ -> Alcotest.fail "expected an error reply"

(* The demand path compiles a binding pattern once for the engine's
   life: a later query with the same pattern, after a write, reuses it
   and still answers from the live facts. *)
let test_demand_reuses_programs () =
  let tr = Observe.Trace.make () in
  let eng = E.create ~trace:tr tc_program (facts "G(a, b). G(b, c).") in
  let demand s = E.query eng ~via:E.Demand (atom s) in
  check_rel "first" (pairs [ ("a", "b"); ("a", "c") ]) (demand "T(a, Y)");
  let rules = Observe.Trace.counter tr "magic.rewritten_rules" in
  ignore (E.assert_facts eng (facts "G(c, d)."));
  check_rel "after a write"
    (pairs [ ("b", "c"); ("b", "d") ])
    (demand "T(b, Y)");
  Alcotest.(check int) "one hit" 1
    (Observe.Trace.counter tr "magic.rewrite_memo_hits");
  Alcotest.(check int) "nothing rewritten again" rules
    (Observe.Trace.counter tr "magic.rewritten_rules");
  check_rel "another pattern" (pairs [ ("a", "d"); ("b", "d"); ("c", "d") ])
    (demand "T(X, d)");
  Alcotest.(check bool) "a new pattern is rewritten" true
    (Observe.Trace.counter tr "magic.rewritten_rules" > rules)

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

type fact = G of int * int | E of int | T of int * int

(* one write: a batch of facts, asserted or retracted together *)
type op = Assert of fact list | Retract of fact list

let pp_fact = function
  | G (i, j) -> Printf.sprintf "g(%d,%d)" i j
  | E i -> Printf.sprintf "e(%d)" i
  | T (i, j) -> Printf.sprintf "t(%d,%d)" i j

let pp_op op =
  let sign, fs =
    match op with Assert fs -> ("+", fs) | Retract fs -> ("-", fs)
  in
  sign ^ "[" ^ String.concat " " (List.map pp_fact fs) ^ "]"

(* A scenario: a sampled sub-program, a small random instance, and a
   schedule of writes over a slightly larger vertex space — so
   retractions hit present and absent facts, and asserts duplicate
   existing facts now and then. A write is a batch of one to four facts
   mixing g, e and t (facts stored for the idb predicate t), and now and
   then names one fact twice: one batch then seeds a semi-naive
   increment or a DRed cone from several predicates at once. *)
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
    let fact_gen =
      frequency
        [
          (3, map2 (fun i j -> G (i, j)) (0 -- (n + 1)) (0 -- (n + 1)));
          (1, map (fun i -> E i) (0 -- (n + 1)));
          (1, map2 (fun i j -> T (i, j)) (0 -- (n + 1)) (0 -- (n + 1)));
        ]
    in
    let batch_gen =
      let* fs = list_size (1 -- 4) fact_gen in
      let* repeat = 0 -- 4 in
      (* one time in five, the batch's last fact is its first again *)
      return
        (match List.rev fs with
        | _ :: (_ :: _ as rest) when repeat = 0 ->
            List.rev (List.hd fs :: rest)
        | _ -> fs)
    in
    let op_gen =
      let* fs = batch_gen in
      map (fun a -> if a then Assert fs else Retract fs) bool
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

let fact_of = function
  | G (i, j) -> ("g", Tuple.of_list [ Graph_gen.vertex i; Graph_gen.vertex j ])
  | T (i, j) -> ("t", Tuple.of_list [ Graph_gen.vertex i; Graph_gen.vertex j ])
  | E i -> ("e", Tuple.of_list [ Graph_gen.vertex i ])

let op_batch = function
  | Assert fs | Retract fs ->
      List.fold_left
        (fun b f ->
          let pred, tup = fact_of f in
          Instance.add_fact pred tup b)
        Instance.empty fs

(* applies [op] to the engine and to the oracle's base instance *)
let apply eng edb op =
  let batch = op_batch op in
  match op with
  | Assert _ ->
      edb := Instance.union !edb batch;
      ignore (E.assert_facts eng batch)
  | Retract _ ->
      edb := Instance.diff !edb batch;
      ignore (E.retract_facts eng batch)

(* Demand queries on every idb predicate, bound at [n0] in each column,
   answer exactly the recompute oracle filtered to the query, and so do
   their immediate repeats and the materialized path. A demand query
   reads the engine's own indexes over the program's edb predicates and
   may build new ones there, which the following writes must maintain:
   this is what catches a stale shared index. *)
let demand_agrees eng p oracle =
  let n0 = Graph_gen.vertex 0 in
  List.for_all
    (fun pred ->
      let cases =
        if String.equal pred "p" then [ ("p(n0)", 0) ]
        else [ (pred ^ "(n0, Y)", 0); (pred ^ "(X, n0)", 1) ]
      in
      List.for_all
        (fun (qs, col) ->
          let q = atom qs in
          let expected =
            Relation.filter
              (fun t -> Value.equal (Tuple.get t col) n0)
              (Instance.find pred oracle)
          in
          Relation.equal expected (E.query eng ~via:E.Demand q)
          && Relation.equal expected (E.query eng ~via:E.Demand q)
          && Relation.equal expected (E.query eng ~via:E.Materialized q))
        cases)
    (Datalog.Ast.idb p)

(* After every op the engine's materialization must be byte-identical to
   re-running semi-naive evaluation from scratch on the oracle's EDB, and
   the demand path must agree with it. *)
let prop_schedule_matches_recompute (p, inst0, ops) =
  let eng = E.create p inst0 in
  let edb = ref inst0 in
  List.for_all
    (fun op ->
      apply eng edb op;
      let oracle = (Datalog.Seminaive.eval p !edb).Datalog.Seminaive.instance in
      let got = E.instance eng in
      Instance.equal got oracle
      && String.equal (Instance.to_string got) (Instance.to_string oracle)
      && demand_agrees eng p oracle)
    ops

(* The engine's base instance must track exactly the oracle EDB, whatever
   mix of present/absent facts the schedule retracts. *)
let prop_edb_tracks_schedule (p, inst0, ops) =
  let eng = E.create p inst0 in
  let edb = ref inst0 in
  List.iter (apply eng edb) ops;
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
    Alcotest.test_case "create's snapshot survives writes (cyclic)" `Quick
      test_snapshot_cyclic;
    Alcotest.test_case "create's snapshot survives writes (acyclic)" `Quick
      test_snapshot_acyclic;
    Alcotest.test_case "non-Datalog rejected" `Quick test_requires_datalog;
    Alcotest.test_case "protocol roundtrip" `Quick test_protocol_roundtrip;
    Alcotest.test_case "malformed requests don't kill the engine" `Quick
      test_handle_errors;
    Alcotest.test_case "every exception becomes an error reply" `Quick
      test_exceptions_become_errors;
    Alcotest.test_case "demand programs compiled once per pattern" `Quick
      test_demand_reuses_programs;
    prop "random schedules ≡ recompute-from-scratch" scenario_arb
      prop_schedule_matches_recompute;
    prop "base instance tracks the schedule" scenario_arb
      prop_edb_tracks_schedule;
  ]
