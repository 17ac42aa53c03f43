(* The matcher: index-backed rule instantiation — the shared workhorse. *)
open Relational
open Helpers
module M = Datalog.Matcher
module Ast = Datalog.Ast

let inst = facts "G(a,b). G(b,c). G(a,c). P(a). P(b)."
let db () = M.Db.of_instance inst

let rule src = Datalog.Parser.parse_rule src
let run ?delta ?dom ?neg_db src = M.run ?delta ?dom ?neg_db (M.prepare (rule src)) (db ())

let test_db_lookup () =
  let d = db () in
  Alcotest.(check int) "all tuples" 3 (List.length (M.Db.lookup d "G" []));
  Alcotest.(check int) "bound first col" 2
    (List.length (M.Db.lookup d "G" [ (0, v "a") ]));
  Alcotest.(check int) "bound both" 1
    (List.length (M.Db.lookup d "G" [ (0, v "a"); (1, v "c") ]));
  Alcotest.(check int) "missing pred" 0 (List.length (M.Db.lookup d "Z" []));
  Alcotest.(check bool) "mem" true (M.Db.mem d "P" (t [ v "a" ]))

let test_join_count () =
  (* G(X,Y), G(Y,Z): paths of length 2: a-b-c only *)
  let substs = run "p(X, Z) :- G(X, Y), G(Y, Z)." in
  Alcotest.(check int) "one 2-path" 1 (List.length substs)

let test_repeated_variable () =
  let substs = run "p(X) :- G(X, X)." in
  Alcotest.(check int) "no self loops" 0 (List.length substs);
  let inst2 = facts "G(a,a). G(a,b)." in
  let substs2 =
    M.run (M.prepare (rule "p(X) :- G(X, X).")) (M.Db.of_instance inst2)
  in
  Alcotest.(check int) "one self loop" 1 (List.length substs2)

let test_constants_in_atoms () =
  let substs = run "p(Y) :- G(a, Y)." in
  Alcotest.(check int) "two successors of a" 2 (List.length substs)

let test_negative_filter () =
  let substs = run "p(X, Y) :- G(X, Y), !P(Y)." in
  (* G pairs whose target is not in P = (b,c) and (a,c) *)
  Alcotest.(check int) "two" 2 (List.length substs)

let test_equality_filters () =
  let substs = run "p(X, Y) :- G(X, Y), X != Y." in
  Alcotest.(check int) "all edges distinct-ended" 3 (List.length substs);
  let substs2 = run "p(X) :- P(X), X = a." in
  Alcotest.(check int) "pinned by equality" 1 (List.length substs2)

let test_domain_variable () =
  (* Y occurs only in a negative literal: ranges over the domain *)
  let dom = List.map v [ "a"; "b"; "c" ] in
  let substs = run ~dom "p(Y) :- P(a), !P(Y)." in
  (* Y in {a,b,c} with P(Y) false: only c *)
  Alcotest.(check int) "one" 1 (List.length substs);
  Alcotest.(check bool) "it is c" true
    (List.for_all (fun s -> List.assoc "Y" s = v "c") substs)

let test_domain_requires_dom () =
  match run "p(Y) :- P(a), !P(Y)." with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument without ~dom"

let test_delta_restriction () =
  let delta = Relation.of_rows [ [ v "a"; v "b" ] ] in
  let substs = run ~delta:("G", delta) "p(X, Z) :- G(X, Y), G(Y, Z)." in
  (* occurrences: first G in delta: (a,b) ∘ G(b,·) = (a,b,c);
     second G in delta: G(·,a)=none. => 1 *)
  Alcotest.(check int) "delta join" 1 (List.length substs);
  let no_delta = run ~delta:("P", Relation.of_rows [ [ v "a" ] ])
      "p(X, Z) :- G(X, Y), G(Y, Z)." in
  Alcotest.(check int) "delta on absent pred" 0 (List.length no_delta);
  (* H comes second in this rule's greedy order: a pass on H starts from
     the delta when it has fewer tuples than the first step's G bucket
     (3 here), and from G otherwise. Either way the answer is the full
     evaluation restricted to substitutions whose H tuple is in the
     delta. *)
  let plan = M.prepare (rule "p(X, Y) :- G(X, Z), H(Z, Y).") in
  let hs = [ ("b", "x"); ("c", "y"); ("c", "z"); ("b", "w") ] in
  let base = Instance.set "H" (pairs hs) inst in
  let full = M.run plan (M.Db.of_instance base) in
  let pass name rows ~delta_first =
    let trace = Observe.Trace.make () in
    let delta = pairs rows in
    let got = M.run ~delta:("H", delta) plan (M.Db.of_instance ~trace base) in
    let expected =
      List.filter
        (fun s -> Relation.mem (t [ List.assoc "Z" s; List.assoc "Y" s ]) delta)
        full
    in
    Alcotest.(check bool) (name ^ ": filtered full evaluation") true
      (expected = got);
    Alcotest.(check int) (name ^ ": matcher.delta_first") delta_first
      (Observe.Trace.counter trace "matcher.delta_first")
  in
  pass "small delta" [ ("c", "y") ] ~delta_first:1;
  pass "large delta" hs ~delta_first:0

let test_neg_db_gl_primitive () =
  (* negation checked against a different instance *)
  let neg_db = M.Db.of_instance (facts "P(a). P(b). P(c).") in
  let substs = run ~neg_db "p(X, Y) :- G(X, Y), !P(Y)." in
  Alcotest.(check int) "all targets blocked" 0 (List.length substs);
  let neg_db2 = M.Db.of_instance Instance.empty in
  let substs2 = run ~neg_db:neg_db2 "p(X, Y) :- G(X, Y), !P(Y)." in
  Alcotest.(check int) "nothing blocked" 3 (List.length substs2)

let test_forall () =
  (* X such that every G-successor of X is in P *)
  let dom = List.map v [ "a"; "b"; "c" ] in
  let substs =
    run ~dom "ans(X) :- forall Y : P(X), !G(X, Y)."
  in
  (* X ∈ P with no successors at all: b has successor c... G(b,c) exists so
     b fails; a has successors so fails. -> none *)
  Alcotest.(check int) "none" 0 (List.length substs);
  let substs2 =
    M.run ~dom:(List.map v [ "a"; "b" ])
      (M.prepare (rule "ans(X) :- forall Y : P(X), !G(Y, X)."))
      (M.Db.of_instance (facts "P(a). P(b). G(b,b)."))
  in
  (* X with no incoming edges from anywhere: a *)
  Alcotest.(check int) "only a" 1 (List.length substs2)

let test_dedup () =
  (* two derivations of the same binding produce one substitution *)
  let substs = run "p(X) :- G(X, Y)." in
  (* X=a twice (via b and c), X=b once → dedup on (X,Y) pairs: 3; but the
     head var set is X,Y both in rule vars so no collapse... use explicit
     projection-like rule *)
  Alcotest.(check int) "three edges" 3 (List.length substs)

let test_instantiate_heads () =
  let r = rule "p(X), !q(X) :- P(X)." in
  let bottom, facts = M.instantiate_heads [ ("X", v "a") ] r.Ast.head in
  Alcotest.(check bool) "no bottom" false bottom;
  Alcotest.(check int) "two facts" 2 (List.length facts);
  let r2 = rule "bottom :- P(X)." in
  let bottom2, facts2 = M.instantiate_heads [ ("X", v "a") ] r2.Ast.head in
  Alcotest.(check bool) "bottom" true bottom2;
  Alcotest.(check int) "no facts" 0 (List.length facts2)

let test_satisfies () =
  let d = db () in
  Alcotest.(check bool) "positive ok" true
    (M.satisfies d [ ("X", v "a") ]
       [ Ast.BPos (Ast.atom "P" [ Ast.var "X" ]) ]);
  Alcotest.(check bool) "negation ok" true
    (M.satisfies d [ ("X", v "c") ]
       [ Ast.BNeg (Ast.atom "P" [ Ast.var "X" ]) ]);
  match M.satisfies d [] [ Ast.BPos (Ast.atom "P" [ Ast.var "X" ]) ] with
  | exception Ast.Check_error _ -> ()
  | _ -> Alcotest.fail "unbound variable should raise"

let test_remove_purges_pending () =
  (* regression: a fact sitting in the lazy pending buffer must not be
     resurrected by a later absorb-triggered flush after being removed *)
  let d = M.Db.of_instance (facts "G(a,b).") in
  M.Db.absorb_new d "G" [ t [ v "x"; v "y" ] ];
  Alcotest.(check bool) "pending fact visible" true
    (M.Db.mem d "G" (t [ v "x"; v "y" ]));
  Alcotest.(check bool) "remove reports present" true
    (M.Db.remove d "G" (t [ v "x"; v "y" ]));
  (* this absorb flushes the pending buffer; a stale entry would come back *)
  M.Db.absorb_new d "G" [ t [ v "p"; v "q" ] ];
  Alcotest.(check bool) "not resurrected (mem)" false
    (M.Db.mem d "G" (t [ v "x"; v "y" ]));
  Alcotest.(check int) "not resurrected (relation)" 2
    (Relation.cardinal (M.Db.relation d "G"));
  Alcotest.(check int) "not resurrected (lookup)" 0
    (List.length (M.Db.lookup d "G" [ (0, v "x") ]));
  Alcotest.(check bool) "remove of absent fact" false
    (M.Db.remove d "G" (t [ v "x"; v "y" ]))

let test_remove_then_absorb_indexed () =
  (* same resurrection check with memoized indexes and membership sets
     already built before the pending fact arrives *)
  let d = db () in
  ignore (M.Db.lookup d "G" [ (0, v "a") ]);
  Alcotest.(check bool) "warm mem" true (M.Db.mem d "G" (t [ v "a"; v "b" ]));
  M.Db.absorb_new d "G" [ t [ v "c"; v "d" ] ];
  Alcotest.(check int) "index sees pending" 1
    (List.length (M.Db.lookup d "G" [ (0, v "c") ]));
  Alcotest.(check bool) "remove pending" true
    (M.Db.remove d "G" (t [ v "c"; v "d" ]));
  M.Db.absorb_new d "G" [ t [ v "c"; v "e" ] ];
  Alcotest.(check int) "index purged" 0
    (List.length (M.Db.lookup d "G" [ (1, v "d") ]));
  Alcotest.(check bool) "membership purged" false
    (M.Db.mem d "G" (t [ v "c"; v "d" ]));
  Alcotest.(check int) "relation holds original 3 + 1 absorbed" 4
    (Relation.cardinal (M.Db.relation d "G"))

let test_sharing () =
  (* a sharing view reads G from [d], facts still in d's pending buffer
     included, and an index it builds on G stays in [d], whose later
     writes maintain it; P comes from the view's own base *)
  let trace = Observe.Trace.make () in
  let d = M.Db.of_instance ~trace inst in
  M.Db.absorb_new d "G" [ t [ v "c"; v "d" ] ];
  let q = M.Db.sharing d [ "G" ] (facts "G(z, z). P(z).") in
  Alcotest.(check int) "shared relation, pending fact included" 4
    (Relation.cardinal (M.Db.relation q "G"));
  Alcotest.(check int) "index built through the view" 1
    (List.length (M.Db.lookup q "G" [ (1, v "d") ]));
  Alcotest.(check int) "unshared predicate from the base" 1
    (Relation.cardinal (M.Db.relation q "P"));
  Alcotest.(check bool) "insert into the shared db" true
    (M.Db.insert d "G" (t [ v "e"; v "d" ]));
  Alcotest.(check int) "the view's index is the db's, maintained" 2
    (List.length (M.Db.lookup d "G" [ (1, v "d") ]));
  Alcotest.(check int) "built once" 1
    (Observe.Trace.counter trace "db.index_builds")

let suite =
  [
    Alcotest.test_case "Db lookup and indexes" `Quick test_db_lookup;
    Alcotest.test_case "join" `Quick test_join_count;
    Alcotest.test_case "repeated variables" `Quick test_repeated_variable;
    Alcotest.test_case "constants in atoms" `Quick test_constants_in_atoms;
    Alcotest.test_case "negative filters" `Quick test_negative_filter;
    Alcotest.test_case "(in)equality filters" `Quick test_equality_filters;
    Alcotest.test_case "domain-bound variables" `Quick test_domain_variable;
    Alcotest.test_case "domain variables need ~dom" `Quick
      test_domain_requires_dom;
    Alcotest.test_case "delta restriction" `Quick test_delta_restriction;
    Alcotest.test_case "neg_db (GL primitive)" `Quick test_neg_db_gl_primitive;
    Alcotest.test_case "forall bodies" `Quick test_forall;
    Alcotest.test_case "substitution dedup" `Quick test_dedup;
    Alcotest.test_case "head instantiation" `Quick test_instantiate_heads;
    Alcotest.test_case "satisfies" `Quick test_satisfies;
    Alcotest.test_case "remove purges the pending buffer" `Quick
      test_remove_purges_pending;
    Alcotest.test_case "remove-then-absorb with warm indexes" `Quick
      test_remove_then_absorb_indexed;
    Alcotest.test_case "sharing view aliases relation and indexes" `Quick
      test_sharing;
  ]
