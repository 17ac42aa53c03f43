(* Fixpoint logics FO+IFP / FO+PFP (+W) — §5.2 of the paper. *)
open Relational
open Helpers
module Fp = Fixpoint_logic.Fp

let g x y = Fp.Atom ("G", [ Fp.Var x; Fp.Var y ])

(* TC via IFP: [IFP_{T,(x,y)} G(x,y) ∨ ∃z (G(x,z) ∧ T(z,y))](u, v) *)
let tc_formula =
  Fp.ifp ~rel:"T" ~vars:[ "x"; "y" ]
    (Fp.Or
       ( g "x" "y",
         Fp.Exists
           ( [ "z" ],
             Fp.And (g "x" "z", Fp.Atom ("T", [ Fp.Var "z"; Fp.Var "y" ])) ) ))
    [ Fp.Var "u"; Fp.Var "v" ]

let test_ifp_tc () =
  List.iter
    (fun seed ->
      let inst = Graph_gen.random ~seed 7 12 in
      let expected = Graph_gen.reference_tc (Instance.find "G" inst) in
      let got = Fp.eval inst tc_formula [ "u"; "v" ] in
      check_rel (Printf.sprintf "IFP TC seed %d" seed) expected got)
    [ 1; 2; 3 ]

let test_ifp_equals_inflationary_datalog () =
  (* Theorem 4.2's convergence, on the logic side *)
  let inst = Graph_gen.chain 5 in
  let datalog =
    Datalog.Seminaive.answer
      (prog "T(X,Y) :- G(X,Y). T(X,Y) :- G(X,Z), T(Z,Y).")
      inst "T"
  in
  check_rel "logic = rules" datalog (Fp.eval inst tc_formula [ "u"; "v" ])

let test_pfp_converging () =
  (* PFP of an inflationary-style body converges to the same fixpoint *)
  let f =
    Fp.pfp ~rel:"T" ~vars:[ "x"; "y" ]
      (Fp.Or
         ( Fp.Atom ("T", [ Fp.Var "x"; Fp.Var "y" ]),
           Fp.Or
             ( g "x" "y",
               Fp.Exists
                 ( [ "z" ],
                   Fp.And (g "x" "z", Fp.Atom ("T", [ Fp.Var "z"; Fp.Var "y" ]))
                 ) ) ))
      [ Fp.Var "u"; Fp.Var "v" ]
  in
  let inst = Graph_gen.chain 4 in
  check_rel "PFP converges to TC"
    (Graph_gen.reference_tc (Instance.find "G" inst))
    (Fp.eval inst f [ "u"; "v" ])

let test_pfp_flipflop_undefined () =
  (* J' = complement of J flip-flops: PFP undefined *)
  let f =
    Fp.pfp ~rel:"R" ~vars:[ "x" ]
      (Fp.And
         ( Fp.Atom ("e", [ Fp.Var "x" ]),
           Fp.Not (Fp.Atom ("R", [ Fp.Var "x" ])) ))
      [ Fp.Var "u" ]
  in
  let inst = facts "e(a). e(b)." in
  match Fp.eval inst f [ "u" ] with
  | exception Fp.Undefined _ -> ()
  | _ -> Alcotest.fail "expected Undefined"

let test_nested_fixpoints () =
  (* nodes on a cycle: x with T(x,x), where T is an inner IFP *)
  let on_cycle =
    Fp.ifp ~rel:"T" ~vars:[ "x"; "y" ]
      (Fp.Or
         ( g "x" "y",
           Fp.Exists
             ( [ "z" ],
               Fp.And (g "x" "z", Fp.Atom ("T", [ Fp.Var "z"; Fp.Var "y" ])) )
         ))
      [ Fp.Var "u"; Fp.Var "u" ]
  in
  let inst = facts "G(a,b). G(b,a). G(b,c)." in
  check_rel "cycle members" (unary [ "a"; "b" ])
    (Fp.eval inst on_cycle [ "u" ])

let test_free_vars () =
  Alcotest.(check (list string)) "tc formula" [ "u"; "v" ]
    (Fp.free_vars tc_formula);
  let w = Fp.Witness ([ "x" ], Fp.Atom ("e", [ Fp.Var "x" ])) in
  Alcotest.(check (list string)) "witness vars stay free" [ "x" ]
    (Fp.free_vars w)

let test_witness_selects_one () =
  let w = Fp.Witness ([ "x" ], Fp.Atom ("e", [ Fp.Var "x" ])) in
  let inst = facts "e(a). e(b). e(c)." in
  let r = Fp.eval inst w [ "x" ] in
  Alcotest.(check int) "one selected" 1 (Relation.cardinal r);
  (* deterministic under a fixed policy *)
  let r2 = Fp.eval inst w [ "x" ] in
  check_rel "deterministic" r r2;
  (* different seeds can pick different witnesses; all outcomes = 3 *)
  let outs = Fp.outcomes inst w [ "x" ] in
  Alcotest.(check int) "three possible outcomes" 3 (List.length outs)

let test_witness_per_parameter () =
  (* W y G(x,y): one successor chosen per x *)
  let w = Fp.Witness ([ "y" ], g "x" "y") in
  let inst = facts "G(a,b). G(a,c). G(d,e)." in
  let r = Fp.eval ~policy:(Fp.seeded_policy 5) inst w [ "x"; "y" ] in
  Alcotest.(check int) "one row per source" 2 (Relation.cardinal r);
  let outs = Fp.outcomes inst w [ "x"; "y" ] in
  (* two choices for a, one for d *)
  Alcotest.(check int) "2x1 outcomes" 2 (List.length outs)

let test_witness_unsatisfiable () =
  let w = Fp.Witness ([ "x" ], Fp.Atom ("empty", [ Fp.Var "x" ])) in
  let inst = facts "e(a)." in
  check_rel "no witness" Relation.empty (Fp.eval inst w [ "x" ])

let test_witness_inside_ifp () =
  (* a nondeterministic chain: start at the chosen root, then follow G —
     FO+IFP+W: the reachable set depends on the witness *)
  let f =
    Fp.ifp ~rel:"S" ~vars:[ "x" ]
      (Fp.Or
         ( Fp.Witness ([ "x" ], Fp.Atom ("root", [ Fp.Var "x" ])),
           Fp.Exists
             ( [ "z" ],
               Fp.And (Fp.Atom ("S", [ Fp.Var "z" ]), g "z" "x") ) ))
      [ Fp.Var "u" ]
  in
  let inst = facts "root(a). root(c). G(a,b). G(c,d)." in
  let outs = Fp.outcomes inst f [ "u" ] in
  Alcotest.(check int) "two outcomes" 2 (List.length outs);
  let sets =
    List.map
      (fun r -> List.map Value.to_string (Relation.values r))
      outs
    |> List.sort compare
  in
  Alcotest.(check (list (list string)))
    "reachable sets"
    [ [ "a"; "b" ]; [ "c"; "d" ] ]
    sets

let test_arity_errors () =
  let bad =
    Fp.ifp ~rel:"T" ~vars:[ "x"; "y" ] (g "x" "y") [ Fp.Var "u" ]
  in
  match Fp.eval (facts "G(a,b).") bad [ "u" ] with
  | exception Fp.Type_error _ -> ()
  | _ -> Alcotest.fail "expected Type_error"

(* --- the compiled path ----------------------------------------------------- *)

let test_compiled_equals_naive_fp () =
  (* the semi-naive fragment (TC), a non-monotone body (rec under ¬ —
     full-recompute iteration), and a converging PFP *)
  let nonmono =
    Fp.ifp ~rel:"T" ~vars:[ "x"; "y" ]
      (Fp.Or
         ( g "x" "y",
           Fp.And
             ( g "y" "x",
               Fp.Not (Fp.Atom ("T", [ Fp.Var "x"; Fp.Var "x" ])) ) ))
      [ Fp.Var "u"; Fp.Var "v" ]
  in
  let pfp_tc =
    Fp.pfp ~rel:"T" ~vars:[ "x"; "y" ]
      (Fp.Or
         ( Fp.Atom ("T", [ Fp.Var "x"; Fp.Var "y" ]),
           Fp.Or
             ( g "x" "y",
               Fp.Exists
                 ( [ "z" ],
                   Fp.And (g "x" "z", Fp.Atom ("T", [ Fp.Var "z"; Fp.Var "y" ]))
                 ) ) ))
      [ Fp.Var "u"; Fp.Var "v" ]
  in
  List.iter
    (fun seed ->
      let inst = Graph_gen.random ~seed 6 10 in
      List.iteri
        (fun k f ->
          check_rel
            (Printf.sprintf "seed %d case %d" seed k)
            (Fp.eval_naive inst f [ "u"; "v" ])
            (Fp.eval inst f [ "u"; "v" ]))
        [ tc_formula; nonmono; pfp_tc ])
    [ 11; 12; 13 ]

let test_fp_rounds_counter () =
  let trace = Observe.Trace.make () in
  let inst = Graph_gen.chain 5 in
  ignore (Fp.eval ~trace inst tc_formula [ "u"; "v" ]);
  Alcotest.(check bool) "rounds counted" true
    (Observe.Trace.counter trace "fp.rounds" >= 3);
  Alcotest.(check int) "no fallback" 0
    (Observe.Trace.counter trace "fp.fallback")

let test_fp_witness_fallback () =
  let trace = Observe.Trace.make () in
  let w = Fp.Witness ([ "x" ], Fp.Atom ("e", [ Fp.Var "x" ])) in
  let inst = facts "e(a). e(b)." in
  let r = Fp.eval ~trace inst w [ "x" ] in
  Alcotest.(check int) "witness forces the naive path" 1
    (Observe.Trace.counter trace "fp.fallback");
  check_rel "fallback result = naive" (Fp.eval_naive inst w [ "x" ]) r

let test_parameterized_fixpoint_falls_back () =
  (* reachable-from-p: the body's free parameter p makes the fixpoint
     per-valuation — the compiled path must detect it and agree anyway *)
  let f =
    Fp.ifp ~rel:"R" ~vars:[ "x" ]
      (Fp.Or
         ( Fp.Eq (Fp.Var "x", Fp.Var "p"),
           Fp.Exists
             ( [ "z" ],
               Fp.And (Fp.Atom ("R", [ Fp.Var "z" ]), g "z" "x") ) ))
      [ Fp.Var "u" ]
  in
  let inst = facts "G(a,b). G(b,c). G(d,d)." in
  let trace = Observe.Trace.make () in
  check_rel "parameterized reachability"
    (Fp.eval_naive inst f [ "u"; "p" ])
    (Fp.eval ~trace inst f [ "u"; "p" ]);
  Alcotest.(check int) "fell back" 1
    (Observe.Trace.counter trace "fp.fallback")

let test_fp_full_free_var_list () =
  match Fp.eval (facts "G(a,b).") tc_formula [] with
  | exception Invalid_argument msg ->
      Alcotest.(check string) "lists every missing variable"
        "Fp.eval: free variables u, v not in output list" msg
  | _ -> Alcotest.fail "expected Invalid_argument"

let suite =
  [
    Alcotest.test_case "IFP computes TC" `Quick test_ifp_tc;
    Alcotest.test_case "IFP = inflationary Datalog (Thm 4.2)" `Quick
      test_ifp_equals_inflationary_datalog;
    Alcotest.test_case "PFP converges on inflationary bodies" `Quick
      test_pfp_converging;
    Alcotest.test_case "PFP flip-flop undefined" `Quick
      test_pfp_flipflop_undefined;
    Alcotest.test_case "nested fixpoints" `Quick test_nested_fixpoints;
    Alcotest.test_case "free variables" `Quick test_free_vars;
    Alcotest.test_case "W selects one witness" `Quick test_witness_selects_one;
    Alcotest.test_case "W selects per parameter" `Quick
      test_witness_per_parameter;
    Alcotest.test_case "W with no candidates" `Quick
      test_witness_unsatisfiable;
    Alcotest.test_case "W inside IFP (FO+IFP+W)" `Quick
      test_witness_inside_ifp;
    Alcotest.test_case "fixpoint arity errors" `Quick test_arity_errors;
    Alcotest.test_case "compiled = naive (IFP/PFP, non-monotone)" `Quick
      test_compiled_equals_naive_fp;
    Alcotest.test_case "fp.rounds counter" `Quick test_fp_rounds_counter;
    Alcotest.test_case "witness falls back to naive" `Quick
      test_fp_witness_fallback;
    Alcotest.test_case "parameterized fixpoint falls back" `Quick
      test_parameterized_fixpoint_falls_back;
    Alcotest.test_case "all missing free variables reported" `Quick
      test_fp_full_free_var_list;
  ]
