(* Relational algebra and the FO evaluator. *)
open Relational
open Helpers

let inst = facts "G(a,b). G(b,c). G(c,c). P(a). P(c)."

let schema = Schema.of_list [ Schema.rel "G" 2; Schema.rel "P" 1 ]

(* --- algebra ------------------------------------------------------------ *)

let test_project () =
  check_rel "project col 0" (unary [ "a"; "b"; "c" ])
    (Algebra.eval inst (Algebra.Project ([ 0 ], Algebra.Rel "G")))

let test_select () =
  check_rel "select self-loop"
    (pairs [ ("c", "c") ])
    (Algebra.eval inst
       (Algebra.Select (Algebra.Col_eq_col (0, 1), Algebra.Rel "G")));
  check_rel "select by constant"
    (pairs [ ("a", "b") ])
    (Algebra.eval inst
       (Algebra.Select (Algebra.Col_eq_const (0, v "a"), Algebra.Rel "G")))

let test_join () =
  (* G ⋈ G on col1 = col0: paths of length two *)
  let joined =
    Algebra.eval inst (Algebra.Join ([ (1, 0) ], Algebra.Rel "G", Algebra.Rel "G"))
  in
  let paths = Relation.map (fun t -> Tuple.project t [ 0; 3 ]) joined in
  check_rel "two-step paths"
    (pairs [ ("a", "c"); ("b", "c"); ("c", "c") ])
    paths

let test_product_union_diff_inter () =
  let p = Instance.find "P" inst in
  let prod = Algebra.eval inst (Algebra.Product (Algebra.Rel "P", Algebra.Rel "P")) in
  Alcotest.(check int) "product size" (Relation.cardinal p * Relation.cardinal p)
    (Relation.cardinal prod);
  check_rel "union"
    (unary [ "a"; "c" ])
    (Algebra.eval inst (Algebra.Union (Algebra.Rel "P", Algebra.Rel "P")));
  check_rel "diff empty" Relation.empty
    (Algebra.eval inst (Algebra.Diff (Algebra.Rel "P", Algebra.Rel "P")));
  check_rel "inter"
    (unary [ "a"; "c" ])
    (Algebra.eval inst (Algebra.Inter (Algebra.Rel "P", Algebra.Rel "P")))

let test_algebra_type_errors () =
  (match Algebra.arity schema (Algebra.Project ([ 5 ], Algebra.Rel "G")) with
  | exception Algebra.Type_error _ -> ()
  | _ -> Alcotest.fail "expected type error");
  (match Algebra.arity schema (Algebra.Union (Algebra.Rel "G", Algebra.Rel "P")) with
  | exception Algebra.Type_error _ -> ()
  | _ -> Alcotest.fail "expected arity error");
  (match Algebra.arity schema (Algebra.Rel "missing") with
  | exception Algebra.Type_error _ -> ()
  | _ -> Alcotest.fail "expected unknown relation");
  Alcotest.(check int) "join arity" 4
    (Algebra.arity schema (Algebra.Join ([ (1, 0) ], Algebra.Rel "G", Algebra.Rel "G")))

let test_algebra_conditions () =
  let t1 = t [ v "a"; v "b" ] in
  Alcotest.(check bool) "not" true
    (Algebra.holds_cond (Algebra.Not (Algebra.Col_eq_col (0, 1))) t1);
  Alcotest.(check bool) "and/or" true
    (Algebra.holds_cond
       (Algebra.Or
          ( Algebra.And (Algebra.Col_eq_col (0, 1), Algebra.True),
            Algebra.Col_eq_const (1, v "b") ))
       t1);
  Alcotest.(check bool) "lt under value order" true
    (Algebra.holds_cond (Algebra.Col_lt_col (0, 1)) t1)

(* --- FO ------------------------------------------------------------------ *)

let test_fo_atoms_and_bool () =
  Alcotest.(check bool) "sentence: some self loop" true
    (Fo.sentence inst
       (Fo.Exists ([ "x" ], Fo.Atom ("G", [ Fo.Var "x"; Fo.Var "x" ]))));
  Alcotest.(check bool) "sentence: all P have G-successor" true
    (Fo.sentence inst
       (Fo.Forall
          ( [ "x" ],
            Fo.Implies
              ( Fo.Atom ("P", [ Fo.Var "x" ]),
                Fo.Exists ([ "y" ], Fo.Atom ("G", [ Fo.Var "x"; Fo.Var "y" ]))
              ) )))

let test_fo_eval_difference () =
  (* P(x) ∧ ¬∃y G(y, x): elements of P with no predecessor *)
  let f =
    Fo.And
      ( Fo.Atom ("P", [ Fo.Var "x" ]),
        Fo.Not (Fo.Exists ([ "y" ], Fo.Atom ("G", [ Fo.Var "y"; Fo.Var "x" ])))
      )
  in
  check_rel "no-predecessor P" (unary [ "a" ]) (Fo.eval inst f [ "x" ])

let test_fo_eval_extra_columns () =
  (* extra output columns range over the active domain *)
  let f = Fo.Atom ("P", [ Fo.Var "x" ]) in
  let r = Fo.eval inst f [ "x"; "z" ] in
  Alcotest.(check int) "P x adom" (2 * 3) (Relation.cardinal r)

let test_fo_eval_requires_free_vars () =
  match Fo.eval inst (Fo.Atom ("P", [ Fo.Var "x" ])) [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_fo_sentence_rejects_free () =
  match Fo.sentence inst (Fo.Atom ("P", [ Fo.Var "x" ])) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_fo_constants_extend_domain () =
  (* z = d for a constant d outside the instance: satisfiable because the
     formula's constants join the domain *)
  let f = Fo.Eq (Fo.Var "z", Fo.Cst (v "d")) in
  check_rel "constant joins domain" (unary [ "d" ]) (Fo.eval inst f [ "z" ])

let test_fo_free_vars_order () =
  let f =
    Fo.And
      ( Fo.Atom ("G", [ Fo.Var "b"; Fo.Var "a" ]),
        Fo.Exists ([ "c" ], Fo.Atom ("G", [ Fo.Var "c"; Fo.Var "a" ])) )
  in
  Alcotest.(check (list string)) "first occurrence order" [ "b"; "a" ]
    (Fo.free_vars f)

let test_fo_de_morgan () =
  (* ¬(φ ∨ ψ) ≡ ¬φ ∧ ¬ψ over all valuations *)
  let phi = Fo.Atom ("P", [ Fo.Var "x" ]) in
  let psi = Fo.Exists ([ "y" ], Fo.Atom ("G", [ Fo.Var "x"; Fo.Var "y" ])) in
  let lhs = Fo.Not (Fo.Or (phi, psi)) in
  let rhs = Fo.And (Fo.Not phi, Fo.Not psi) in
  check_rel "de morgan" (Fo.eval inst lhs [ "x" ]) (Fo.eval inst rhs [ "x" ])

(* --- the safe-range compiler --------------------------------------------- *)

let test_semijoin_antijoin () =
  check_rel "semijoin: G restricted to P-targets"
    (pairs [ ("b", "c"); ("c", "c") ])
    (Algebra.eval inst
       (Algebra.Semijoin ([ (1, 0) ], Algebra.Rel "G", Algebra.Rel "P")));
  check_rel "antijoin: G minus P-targets"
    (pairs [ ("a", "b") ])
    (Algebra.eval inst
       (Algebra.Antijoin ([ (1, 0) ], Algebra.Rel "G", Algebra.Rel "P")));
  (* the empty pair list gates on the right side being (non)empty *)
  check_rel "nullary semijoin keeps all"
    (Instance.find "G" inst)
    (Algebra.eval inst (Algebra.Semijoin ([], Algebra.Rel "G", Algebra.Rel "P")));
  check_rel "nullary antijoin drops all" Relation.empty
    (Algebra.eval inst (Algebra.Antijoin ([], Algebra.Rel "G", Algebra.Rel "P")))

let test_adom_complement () =
  check_rel "adom leaf" (unary [ "a"; "b"; "c" ]) (Algebra.eval inst Algebra.Adom);
  check_rel "unary complement" (unary [ "b" ])
    (Algebra.eval inst (Algebra.Complement (1, Algebra.Adom, Algebra.Rel "P")));
  Alcotest.(check int) "binary complement size" ((3 * 3) - 3)
    (Relation.cardinal
       (Algebra.eval inst (Algebra.Complement (2, Algebra.Adom, Algebra.Rel "G"))));
  Alcotest.(check int) "adom arity" 1 (Algebra.arity schema Algebra.Adom);
  Alcotest.(check int) "complement arity" 2
    (Algebra.arity schema (Algebra.Complement (2, Algebra.Adom, Algebra.Rel "G")))

let test_type_error_names_subexpression () =
  match Algebra.arity schema (Algebra.Project ([ 5 ], Algebra.Rel "G")) with
  | exception Algebra.Type_error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "message names the expression: %s" msg)
        true
        (contains ~sub:" in " msg && contains ~sub:"G" msg)
  | _ -> Alcotest.fail "expected type error"

let test_compiled_equals_naive () =
  let x = Fo.Var "x" and y = Fo.Var "y" in
  let cases =
    [
      Fo.Atom ("G", [ x; y ]);
      Fo.And (Fo.Atom ("G", [ x; y ]), Fo.Not (Fo.Atom ("P", [ y ])));
      Fo.Not (Fo.Or (Fo.Atom ("G", [ x; y ]), Fo.Atom ("G", [ y; x ])));
      Fo.Implies (Fo.Atom ("P", [ x ]), Fo.Atom ("G", [ x; y ]));
      Fo.Forall
        ([ "z" ], Fo.Implies (Fo.Atom ("P", [ Fo.Var "z" ]), Fo.Eq (x, y)));
      Fo.And (Fo.Eq (x, Fo.Cst (v "q")), Fo.Not (Fo.Eq (x, y)));
      Fo.Exists ([ "z" ], Fo.And (Fo.Atom ("G", [ x; Fo.Var "z" ]), Fo.Eq (x, y)));
    ]
  in
  List.iteri
    (fun k f ->
      check_rel
        (Printf.sprintf "case %d" k)
        (Fo.eval_naive inst f [ "x"; "y" ])
        (Fo.eval inst f [ "x"; "y" ]))
    cases

let test_full_free_var_list () =
  let f =
    Fo.And
      ( Fo.Atom ("G", [ Fo.Var "x"; Fo.Var "y" ]),
        Fo.Atom ("P", [ Fo.Var "z" ]) )
  in
  match Fo.eval inst f [ "x" ] with
  | exception Invalid_argument msg ->
      Alcotest.(check string) "lists every missing variable"
        "Fo.eval: free variables y, z not in output list" msg
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_plan_counters () =
  let trace = Observe.Trace.make () in
  (* a formula no other test compiles: the unique constant forces a cache
     miss on the first call, and only the first *)
  let f =
    Fo.And
      ( Fo.Atom ("G", [ Fo.Var "x"; Fo.Var "y" ]),
        Fo.Exists
          ( [ "z" ],
            Fo.And
              ( Fo.Atom ("G", [ Fo.Var "y"; Fo.Var "z" ]),
                Fo.Not (Fo.Eq (Fo.Var "z", Fo.Cst (v "counter-probe"))) ) ) )
  in
  ignore (Fo.eval ~trace inst f [ "x"; "y" ]);
  Alcotest.(check int) "one compilation" 1
    (Observe.Trace.counter trace "fo.plan.compiled");
  Alcotest.(check bool) "joins probed" true
    (Observe.Trace.counter trace "ra.join.probes" > 0);
  ignore (Fo.eval ~trace inst f [ "x"; "y" ]);
  Alcotest.(check int) "second run hits the memo" 1
    (Observe.Trace.counter trace "fo.plan.compiled");
  (* an unsafe equality pays bounded per-variable domain expansion *)
  let unsafe = Fo.Eq (Fo.Var "x", Fo.Cst (v "fallback-probe")) in
  let trace2 = Observe.Trace.make () in
  ignore (Fo.eval ~trace:trace2 inst unsafe [ "x"; "w" ]);
  Alcotest.(check bool) "fallback vars counted" true
    (Observe.Trace.counter trace2 "fo.plan.fallback_vars" > 0)

let test_shared_collectors () =
  (* the hashtable-backed collector dedups and preserves first-occurrence
     order, honoring the bound stack handed to [note] *)
  let got =
    Fo.collect_free_vars (fun note ->
        note [] "b";
        note [ "a" ] "a";
        note [] "c";
        note [] "b";
        note [ "c" ] "a")
  in
  Alcotest.(check (list string)) "dedup, order, binding" [ "b"; "c"; "a" ] got;
  Alcotest.(check (list string))
    "free_vars goes through the collector" [ "b"; "a" ]
    (Fo.free_vars
       (Fo.And
          ( Fo.Atom ("G", [ Fo.Var "b"; Fo.Var "a" ]),
            Fo.Exists ([ "b" ], Fo.Atom ("P", [ Fo.Var "b" ])) )))

let test_arity_mismatch_plan () =
  (* a plan compiled against one arity stays correct when the instance
     disagrees: such atoms are uniformly false under naive semantics *)
  let f =
    Fo.Or
      ( Fo.Atom ("P", [ Fo.Var "x"; Fo.Var "x" ]),
        Fo.Atom ("G", [ Fo.Var "x"; Fo.Var "x" ]) )
  in
  check_rel "mismatched atom is false"
    (Fo.eval_naive inst f [ "x" ])
    (Fo.eval inst f [ "x" ]);
  check_rel "self-loops only" (unary [ "c" ]) (Fo.eval inst f [ "x" ])

(* algebra and FO agree on a joint query: π0(σ(G ⋈ G)) vs ∃-formula *)
let test_algebra_fo_agree () =
  let via_algebra =
    Algebra.eval inst
      (Algebra.Project
         ([ 0 ], Algebra.Join ([ (1, 0) ], Algebra.Rel "G", Algebra.Rel "G")))
  in
  let via_fo =
    Fo.eval inst
      (Fo.Exists
         ( [ "y"; "z" ],
           Fo.And
             ( Fo.Atom ("G", [ Fo.Var "x"; Fo.Var "y" ]),
               Fo.Atom ("G", [ Fo.Var "y"; Fo.Var "z" ]) ) ))
      [ "x" ]
  in
  check_rel "algebra = calculus" via_algebra via_fo

(* --- memoized join indexes ---------------------------------------------- *)

module A = Algebra

(* The same instance with every relation rebuilt: fresh values, no memos,
   so evaluating on it is the unmemoized reference. *)
let fresh i =
  Instance.fold
    (fun name r acc ->
      Instance.set name (Relation.of_list (Relation.to_list r)) acc)
    i Instance.empty

let memo_inst = facts "G(a,b). G(b,c). G(c,d). G(d,a). G(a,c). S(a). S(c)."

(* S is smaller than the stored G, so G's memo serves every join below *)
let memo_plans =
  [
    ("S ⋈ G on G.0", A.Join ([ (0, 0) ], A.Rel "S", A.Rel "G"));
    ( "S ⋈ G on G.1",
      A.Project ([ 0; 1 ], A.Join ([ (0, 1) ], A.Rel "S", A.Rel "G")) );
    ("S ⋉ G on G.1", A.Semijoin ([ (0, 1) ], A.Rel "S", A.Rel "G"));
    ("S ▷ G on G.0", A.Antijoin ([ (0, 0) ], A.Rel "S", A.Rel "G"));
  ]

let test_memo_column_sets () =
  let trace = Observe.Trace.make () in
  let reference = fresh memo_inst in
  for run = 1 to 3 do
    List.iter
      (fun (name, e) ->
        check_rel
          (Printf.sprintf "%s, run %d" name run)
          (A.eval reference e) (A.eval ~trace memo_inst e))
      memo_plans
  done;
  (* per value and column set: the first request marks, the second
     builds, every later one hits — G on columns 0 and 1, and S on column
     0, indexed as the smaller operand while G's memo was only marked *)
  Alcotest.(check int) "one build per value and column set" 3
    (Observe.Trace.counter trace "ra.index.builds");
  Alcotest.(check bool) "later runs hit" true
    (Observe.Trace.counter trace "ra.index.hits" >= 4)

let test_memo_not_stale () =
  let e = List.assoc "S ⋈ G on G.0" memo_plans in
  for _ = 1 to 3 do
    ignore (A.eval memo_inst e)
  done;
  let grown = Instance.add_fact "G" (t [ v "a"; v "z" ]) memo_inst in
  for _ = 1 to 3 do
    let r = A.eval grown e in
    check_rel "the new tuple reaches the join" (A.eval (fresh grown) e) r;
    Alcotest.(check bool) "(a, a, z) joined" true
      (Relation.mem (t [ v "a"; v "a"; v "z" ]) r)
  done;
  check_rel "the old version still answers without it"
    (A.eval (fresh memo_inst) e) (A.eval memo_inst e)

let test_memo_explain () =
  let e = List.assoc "S ⋈ G on G.0" memo_plans in
  let inst = fresh memo_inst and profile = A.profile () in
  for _ = 1 to 3 do
    ignore (A.eval ~profile inst e)
  done;
  (* run 1 only marks G, runs 2 and 3 probe its memo *)
  Alcotest.(check (option (pair int int)))
    "2 of 3 runs probed a memo" (Some (2, 3)) (A.profile_memo profile e);
  Alcotest.(check bool)
    "text marks the join" true
    (contains ~sub:"join[0=0] arity=3" (Explain.text ~inst ~profile e)
    && contains ~sub:"memo=2/3" (Explain.text ~inst ~profile e));
  let memo = Observe.Json.member "memo" (Explain.json ~inst ~profile e) in
  Alcotest.(check bool)
    "json carries the counts" true
    (memo
    = Some
        Observe.Json.(Obj [ ("runs", Int 3); ("memo_runs", Int 2) ]))

let prop_memo_runs_equal_naive =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100
       ~name:"memoized plans = naive enumerator, 3 runs"
       Test_properties.fo_rand_arb (fun (f, i) ->
         let vars = Fo.free_vars f in
         let expected = Fo.eval_naive i f vars in
         List.for_all
           (fun _ -> Relation.equal expected (Fo.eval i f vars))
           [ 1; 2; 3 ]))

let test_memo_domains () =
  let g = Graph_gen.random ~name:"G" ~seed:7 60 240 in
  let inst = Instance.set "S" (Relation.of_rows [ [ Graph_gen.vertex 0 ] ]) g in
  let two_steps =
    A.Project
      ( [ 0; 3 ],
        A.Join
          ( [ (1, 0) ],
            A.Semijoin ([ (0, 0) ], A.Rel "G", A.Rel "S"),
            A.Rel "G" ) )
  in
  let plan =
    A.Union
      ( two_steps,
        A.Project ([ 0; 2 ], A.Join ([ (1, 0) ], A.Rel "G", A.Rel "G")) )
  in
  let expected = A.eval (fresh inst) plan in
  let workers =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            List.init 20 (fun _ -> A.eval inst plan)))
  in
  List.iteri
    (fun w d ->
      List.iteri
        (fun k r ->
          check_rel (Printf.sprintf "domain %d, run %d" w k) expected r)
        (Domain.join d))
    workers

let suite =
  [
    Alcotest.test_case "projection" `Quick test_project;
    Alcotest.test_case "selection" `Quick test_select;
    Alcotest.test_case "equijoin" `Quick test_join;
    Alcotest.test_case "product/union/diff/inter" `Quick
      test_product_union_diff_inter;
    Alcotest.test_case "algebra type errors" `Quick test_algebra_type_errors;
    Alcotest.test_case "selection conditions" `Quick test_algebra_conditions;
    Alcotest.test_case "FO sentences" `Quick test_fo_atoms_and_bool;
    Alcotest.test_case "FO difference query" `Quick test_fo_eval_difference;
    Alcotest.test_case "FO extra output columns" `Quick
      test_fo_eval_extra_columns;
    Alcotest.test_case "FO eval var coverage" `Quick
      test_fo_eval_requires_free_vars;
    Alcotest.test_case "FO sentence closedness" `Quick
      test_fo_sentence_rejects_free;
    Alcotest.test_case "FO constants extend domain" `Quick
      test_fo_constants_extend_domain;
    Alcotest.test_case "FO free-variable order" `Quick test_fo_free_vars_order;
    Alcotest.test_case "FO De Morgan" `Quick test_fo_de_morgan;
    Alcotest.test_case "algebra = calculus on a join query" `Quick
      test_algebra_fo_agree;
    Alcotest.test_case "semijoin/antijoin" `Quick test_semijoin_antijoin;
    Alcotest.test_case "adom leaf and complement" `Quick test_adom_complement;
    Alcotest.test_case "Type_error names the sub-expression" `Quick
      test_type_error_names_subexpression;
    Alcotest.test_case "compiled = naive evaluator" `Quick
      test_compiled_equals_naive;
    Alcotest.test_case "all missing free variables reported" `Quick
      test_full_free_var_list;
    Alcotest.test_case "plan counters and memoization" `Quick
      test_plan_counters;
    Alcotest.test_case "shared syntax collectors" `Quick test_shared_collectors;
    Alcotest.test_case "memo: two column sets of one value" `Quick
      test_memo_column_sets;
    Alcotest.test_case "memo: a grown relation is re-indexed" `Quick
      test_memo_not_stale;
    Alcotest.test_case "memo: EXPLAIN counts memoized runs" `Quick
      test_memo_explain;
    prop_memo_runs_equal_naive;
    Alcotest.test_case "memo: 4 domains share one instance" `Quick
      test_memo_domains;
    Alcotest.test_case "plans survive arity mismatches" `Quick
      test_arity_mismatch_plan;
  ]
