(* Property-based tests (qcheck): cross-engine agreement, semantic
   invariants, genericity, round-trips — on randomly generated programs
   and instances. *)
open Relational
open Helpers
module Q = QCheck

(* ------------------------------------------------------------------ *)
(* generators                                                          *)
(* ------------------------------------------------------------------ *)

let small_graph_gen =
  Q.Gen.(
    let* n = 2 -- 8 in
    let* m = 0 -- (n * 2) in
    let* seed = 0 -- 10_000 in
    return (Graph_gen.random ~seed n m, n, m, seed))

let graph_arb =
  Q.make
    ~print:(fun (i, n, m, seed) ->
      Printf.sprintf "graph(n=%d, m=%d, seed=%d):\n%s" n m seed
        (Instance.to_string i))
    small_graph_gen

(* random positive Datalog programs over a fixed schema:
   edb e/1, g/2; idb p/1, q/2. Rules are built from a safe template pool,
   sampled; this generates recursion, mutual recursion, projections. *)
let rule_pool =
  [
    "p(X) :- e(X).";
    "p(X) :- g(X, Y).";
    "p(Y) :- g(X, Y), p(X).";
    "q(X, Y) :- g(X, Y).";
    "q(X, Y) :- g(X, Z), q(Z, Y).";
    "q(X, Y) :- q(X, Z), q(Z, Y).";
    "p(X) :- q(X, X).";
    "q(X, X) :- e(X).";
    "q(X, Y) :- g(Y, X).";
    "p(X) :- q(X, Y), e(Y).";
  ]

(* rules with safe negation for stratified-program generation; negation
   only on earlier-defined predicates *)
let neg_rule_pool =
  [
    "r(X) :- e(X), !p(X).";
    "r(X) :- g(X, Y), !q(X, Y).";
    "s(X) :- e(X), !r(X).";
    "s(X) :- p(X), !r(X).";
    "r(X) :- p(X), e(X).";
  ]

let program_gen pool =
  Q.Gen.(
    let* k = 1 -- List.length pool in
    let* idx = list_size (return k) (0 -- (List.length pool - 1)) in
    let rules =
      List.sort_uniq compare idx
      |> List.map (fun i -> List.nth pool i)
    in
    return (prog (String.concat "\n" rules)))

let inst_gen =
  Q.Gen.(
    let* n = 1 -- 6 in
    let* edges = 0 -- 10 in
    let* seed = 0 -- 10_000 in
    let g = Graph_gen.random ~name:"g" ~seed n edges in
    let* ne = 0 -- n in
    let es = List.init ne (fun i -> [ Graph_gen.vertex i ]) in
    return (Instance.set "e" (Relation.of_rows es) g))

let prog_inst_arb pool =
  Q.make
    ~print:(fun (p, i) ->
      Printf.sprintf "program:\n%s\ninstance:\n%s"
        (Datalog.Pretty.program_to_string p)
        (Instance.to_string i))
    Q.Gen.(
      let* p = program_gen pool in
      let* i = inst_gen in
      return (p, i))

let count = 100

let prop name arb f = QCheck_alcotest.to_alcotest (Q.Test.make ~count ~name arb f)

(* ------------------------------------------------------------------ *)
(* properties                                                          *)
(* ------------------------------------------------------------------ *)

(* naive = semi-naive = inflationary on positive programs (minimum model
   and inflationary fixpoint coincide for Datalog, §4.1) *)
let prop_engines_agree_positive =
  prop "naive = semi-naive = inflationary (positive programs)"
    (prog_inst_arb rule_pool) (fun (p, i) ->
      let n = (Datalog.Naive.eval p i).Datalog.Naive.instance in
      let s = (Datalog.Seminaive.eval p i).Datalog.Seminaive.instance in
      let f = (Datalog.Inflationary.eval p i).Datalog.Inflationary.instance in
      Instance.equal n s && Instance.equal n f)

(* TC engines agree with the Floyd–Warshall oracle *)
let prop_tc_oracle =
  prop "TC = Floyd–Warshall oracle" graph_arb (fun (i, _, _, _) ->
      let tc =
        prog "T(X,Y) :- G(X,Y). T(X,Y) :- G(X,Z), T(Z,Y)."
      in
      Relation.equal
        (Datalog.Seminaive.answer tc i "T")
        (Graph_gen.reference_tc (Instance.find "G" i)))

(* minimum model is a fixpoint: re-running adds nothing *)
let prop_fixpoint_idempotent =
  prop "evaluation is idempotent" (prog_inst_arb rule_pool) (fun (p, i) ->
      let once = (Datalog.Seminaive.eval p i).Datalog.Seminaive.instance in
      let twice = (Datalog.Seminaive.eval p once).Datalog.Seminaive.instance in
      Instance.equal once twice)

(* monotonicity of positive programs: more input facts, more output *)
let prop_positive_monotone =
  prop "positive programs are monotone" (prog_inst_arb rule_pool)
    (fun (p, i) ->
      let bigger =
        Instance.add_fact "g"
          (t [ v "extra1"; v "extra2" ])
          i
      in
      Instance.subset
        ((Datalog.Seminaive.eval p i).Datalog.Seminaive.instance)
        ((Datalog.Seminaive.eval p bigger).Datalog.Seminaive.instance))

(* the delta engine must agree with naive evaluation on rules that stress
   its compiled plans: repeated variables inside one atom, constants in
   body atoms, and bodies with several positive occurrences of the same
   recursive (delta) predicate — each occurrence needs its own delta
   pass, and dedup across passes must not lose substitutions *)
let delta_stress_pool =
  [
    "loop(X) :- g(X, X).";
    "p(X) :- g(X, Y), g(Y, X).";
    "t(X, Y) :- g(X, Y).";
    "t(X, Z) :- t(X, Y), t(Y, Z).";
    "p2(X, Z) :- t(X, Y), t(Y, Z).";
    "c(Y) :- g(n0, Y).";
    "c(Y) :- t(Y, n1).";
    "d(X) :- t(X, X).";
    "d2(X) :- t(n0, X), g(X, X).";
    "tri(X) :- g(X, Y), g(Y, Z), g(Z, X).";
  ]

let prop_seminaive_stress_agree =
  prop "naive = semi-naive (repeated vars, constants, multi-delta bodies)"
    (prog_inst_arb delta_stress_pool) (fun (p, i) ->
      let n = (Datalog.Naive.eval p i).Datalog.Naive.instance in
      let s = (Datalog.Seminaive.eval p i).Datalog.Seminaive.instance in
      Instance.equal n s)

(* stratified programs: stratified = well-founded 2-valued = total *)
let strat_pool = rule_pool @ neg_rule_pool

let prop_stratified_equals_wellfounded =
  prop "stratified = well-founded on stratifiable programs"
    (prog_inst_arb strat_pool) (fun (p, i) ->
      Q.assume (Datalog.Stratify.is_stratifiable p);
      let s = (Datalog.Stratified.eval p i).Datalog.Stratified.instance in
      let w = Datalog.Wellfounded.eval p i in
      Datalog.Wellfounded.is_total w
      && Instance.equal s w.Datalog.Wellfounded.true_facts)

(* stratified programs have exactly one stable model, equal to the
   stratified semantics *)
let prop_stratified_unique_stable =
  prop "stratifiable => unique stable model" (prog_inst_arb strat_pool)
    (fun (p, i) ->
      Q.assume (Datalog.Stratify.is_stratifiable p);
      match Datalog.Stable.models p i with
      | [ m ] ->
          Instance.equal m
            (Datalog.Stratified.eval p i).Datalog.Stratified.instance
      | _ -> false)

(* well-founded invariants: true ⊆ possible; every stable model is
   sandwiched between them *)
let prop_wf_sandwich =
  prop "wf true ⊆ stable ⊆ wf possible" (prog_inst_arb strat_pool)
    (fun (p, i) ->
      let w = Datalog.Wellfounded.eval p i in
      Instance.subset w.Datalog.Wellfounded.true_facts
        w.Datalog.Wellfounded.possible
      && List.for_all
           (fun m ->
             Instance.subset w.Datalog.Wellfounded.true_facts m
             && Instance.subset m w.Datalog.Wellfounded.possible)
           (Datalog.Stable.models p i))

(* genericity: engines commute with renamings of the domain (the paper's
   §2 genericity condition; constants of the program fixed — our pools are
   constant-free) *)
let prop_genericity =
  prop "genericity: evaluation commutes with renaming"
    (prog_inst_arb strat_pool) (fun (p, i) ->
      Q.assume (Datalog.Stratify.is_stratifiable p);
      let rename = function
        | Value.Sym s -> Value.Sym ("zz_" ^ s)
        | other -> other
      in
      let lhs =
        Instance.map_values rename
          (Datalog.Stratified.eval p i).Datalog.Stratified.instance
      in
      let rhs =
        (Datalog.Stratified.eval p (Instance.map_values rename i))
          .Datalog.Stratified.instance
      in
      Instance.equal lhs rhs)

(* inflationary strategies agree (delta optimization is exact) *)
let prop_inflationary_strategies =
  prop "inflationary: naive loop = delta loop" (prog_inst_arb strat_pool)
    (fun (p, i) ->
      let a =
        (Datalog.Inflationary.eval ~strategy:Datalog.Inflationary.Naive_loop p i)
          .Datalog.Inflationary.instance
      in
      let b =
        (Datalog.Inflationary.eval ~strategy:Datalog.Inflationary.Delta_loop p i)
          .Datalog.Inflationary.instance
      in
      Instance.equal a b)

(* inflationary trace is an increasing chain ending in the fixpoint *)
let prop_inflationary_trace_monotone =
  prop "inflationary trace is an inflationary chain"
    (prog_inst_arb strat_pool) (fun (p, i) ->
      let trace = Datalog.Inflationary.trace p i in
      let rec mono = function
        | a :: (b :: _ as rest) -> Instance.subset a b && mono rest
        | _ -> true
      in
      mono trace
      &&
      let last = List.nth trace (List.length trace - 1) in
      Instance.equal last
        (Datalog.Inflationary.eval p i).Datalog.Inflationary.instance)

(* magic sets = full evaluation on the query predicate *)
let prop_magic_sound_complete =
  prop "magic = full evaluation on point queries" graph_arb
    (fun (i, n, _, _) ->
      Q.assume (n > 0);
      let tcp = prog "T(X,Y) :- G(X,Y). T(X,Y) :- T(X,Z), G(Z,Y)." in
      let src = Graph_gen.vertex 0 in
      let query =
        Datalog.Ast.atom "T" [ Datalog.Ast.cst src; Datalog.Ast.var "Y" ]
      in
      let full =
        Relation.filter
          (fun t -> Value.equal (Tuple.get t 0) src)
          (Datalog.Seminaive.answer tcp i "T")
      in
      Relation.equal full (Datalog.Magic.answer tcp i query))

(* FO compilation = direct FO evaluation *)
let fo_formula_pool =
  [
    (Fo.Atom ("g", [ Fo.Var "x"; Fo.Var "y" ]), [ "x"; "y" ]);
    ( Fo.And
        ( Fo.Atom ("e", [ Fo.Var "x" ]),
          Fo.Not (Fo.Exists ([ "y" ], Fo.Atom ("g", [ Fo.Var "x"; Fo.Var "y" ])))
        ),
      [ "x" ] );
    ( Fo.Forall
        ( [ "y" ],
          Fo.Implies
            ( Fo.Atom ("g", [ Fo.Var "y"; Fo.Var "x" ]),
              Fo.Atom ("e", [ Fo.Var "y" ]) ) ),
      [ "x" ] );
    ( Fo.Or
        ( Fo.Atom ("e", [ Fo.Var "x" ]),
          Fo.Exists ([ "y" ], Fo.Atom ("g", [ Fo.Var "y"; Fo.Var "x" ])) ),
      [ "x" ] );
    (Fo.Eq (Fo.Var "x", Fo.Var "y"), [ "x"; "y" ]);
  ]

let fo_arb =
  Q.make
    ~print:(fun ((f, vars), i) ->
      Format.asprintf "%a over %s (vars %s)" Fo.pp f (Instance.to_string i)
        (String.concat "," vars))
    Q.Gen.(
      let* fi = 0 -- (List.length fo_formula_pool - 1) in
      let* i = inst_gen in
      return (List.nth fo_formula_pool fi, i))

let prop_fo_compile =
  prop "FO compilation = direct evaluation" fo_arb (fun ((f, vars), i) ->
      let sources = [ ("g", 2); ("e", 1) ] in
      (* align domains: direct eval must use the same active domain the
         compiled adom predicate computes (source columns + constants) *)
      let direct = Fo.eval i f vars in
      let compiled = While_lang.Fo_compile.answer ~sources f vars i in
      Relation.equal direct compiled)

(* random FO formulas: the safe-range compiled evaluator must agree with
   the naive active-domain enumerator on every formula — safe or not
   (unsafe subformulas take the bounded per-variable expansion) *)
let fo_rand_gen =
  Q.Gen.(
    let var = oneofl [ "x"; "y"; "z" ] in
    let term =
      frequency
        [
          (4, map (fun x -> Fo.Var x) var);
          (1, map (fun c -> Fo.Cst (v c)) (oneofl [ "n0"; "n1"; "zz" ]));
        ]
    in
    let base =
      frequency
        [
          (3, map2 (fun a b -> Fo.Atom ("g", [ a; b ])) term term);
          (2, map (fun a -> Fo.Atom ("e", [ a ])) term);
          (2, map2 (fun a b -> Fo.Eq (a, b)) term term);
          (1, oneofl [ Fo.True; Fo.False ]);
        ]
    in
    fix
      (fun self depth ->
        if depth = 0 then base
        else
          frequency
            [
              (2, base);
              (1, map (fun f -> Fo.Not f) (self (depth - 1)));
              (2, map2 (fun a b -> Fo.And (a, b)) (self (depth - 1)) (self (depth - 1)));
              (2, map2 (fun a b -> Fo.Or (a, b)) (self (depth - 1)) (self (depth - 1)));
              (1, map2 (fun a b -> Fo.Implies (a, b)) (self (depth - 1)) (self (depth - 1)));
              (1, map2 (fun x f -> Fo.Exists ([ x ], f)) var (self (depth - 1)));
              (1, map2 (fun x f -> Fo.Forall ([ x ], f)) var (self (depth - 1)));
            ])
      3)

let fo_rand_arb =
  Q.make
    ~print:(fun (f, i) ->
      Format.asprintf "%a over %s" Fo.pp f (Instance.to_string i))
    Q.Gen.(
      let* f = fo_rand_gen in
      let* i = inst_gen in
      return (f, i))

let prop_fo_compiled_equals_naive =
  prop "FO compiled plan = naive enumerator (random formulas)" fo_rand_arb
    (fun (f, i) ->
      let vars = Fo.free_vars f in
      Relation.equal (Fo.eval_naive i f vars) (Fo.eval i f vars))

(* Thm 4.5-style engine-vs-logic agreement at non-toy size: IFP-TC on
   random 300-vertex graphs matches the inflationary Datalog engine byte
   for byte *)
let test_ifp_tc_matches_inflationary_large () =
  let module Fp = Fixpoint_logic.Fp in
  let tc_formula =
    Fp.ifp ~rel:"T" ~vars:[ "x"; "y" ]
      (Fp.Or
         ( Fp.Atom ("G", [ Fp.Var "x"; Fp.Var "y" ]),
           Fp.Exists
             ( [ "z" ],
               Fp.And
                 ( Fp.Atom ("G", [ Fp.Var "x"; Fp.Var "z" ]),
                   Fp.Atom ("T", [ Fp.Var "z"; Fp.Var "y" ]) ) ) ))
      [ Fp.Var "u"; Fp.Var "v" ]
  in
  List.iter
    (fun seed ->
      let inst = Graph_gen.random ~seed 300 900 in
      let logic = Fp.eval inst tc_formula [ "u"; "v" ] in
      let rules =
        Instance.find "T"
          (Datalog.Inflationary.eval tc_program inst)
            .Datalog.Inflationary.instance
      in
      Alcotest.(check string)
        (Printf.sprintf "seed %d byte-identical" seed)
        (Format.asprintf "%a" Relation.pp rules)
        (Format.asprintf "%a" Relation.pp logic))
    [ 21; 22 ]

(* pretty-print / parse round-trip on generated programs *)
let prop_pretty_roundtrip =
  prop "pretty/parse roundtrip" (prog_inst_arb strat_pool) (fun (p, _) ->
      Datalog.Parser.parse_program (Datalog.Pretty.program_to_string p) = p)

(* nondeterministic random walks always land in the enumerated effect *)
let prop_nd_walks_in_effect =
  prop "random walks land in the effect"
    (Q.make
       ~print:(fun (i, seed) ->
         Printf.sprintf "seed %d on %s" seed (Instance.to_string i))
       Q.Gen.(
         let* k = 1 -- 3 in
         let* seed = 0 -- 1000 in
         return (Graph_gen.two_cycles k, seed)))
    (fun (i, seed) ->
      let p = prog "!G(X, Y) :- G(X, Y), G(Y, X)." in
      match Nondet.Nd_eval.run ~seed p i with
      | Nondet.Nd_eval.Terminal { instance; _ } ->
          List.exists (Instance.equal instance)
            (Nondet.Enumerate.terminals p i)
      | _ -> false)

(* --- the active domain, computed on interned ids ------------------------ *)

(* The set-based definitions the id-based ones replaced, kept as
   oracles: decode every component of every fact into a value set. *)
module VSet = Set.Make (Value)

let oracle_values r =
  VSet.elements
    (Relation.fold
       (fun t acc -> List.fold_left (fun acc v -> VSet.add v acc) acc (Tuple.to_list t))
       r VSet.empty)

let oracle_adom inst =
  VSet.elements
    (Instance.fold
       (fun _ r acc -> VSet.union acc (VSet.of_list (oracle_values r)))
       inst VSet.empty)

let oracle_program_dom p inst =
  VSet.elements (VSet.union (VSet.of_list (Datalog.Ast.adom p)) (VSet.of_list (oracle_adom inst)))

(* instances mixing every kind of value — ints (negative too), strings,
   symbols and invented values — so the cross-kind order is exercised,
   with a few values shared between relations *)
let mixed_value_gen =
  Q.Gen.(
    oneof
      [
        map (fun n -> Value.Int n) (-4 -- 4);
        map (fun n -> Value.Str (String.make 1 (Char.chr (97 + n)))) (0 -- 4);
        map (fun n -> Value.Sym ("s" ^ string_of_int n)) (0 -- 4);
        map (fun n -> Value.New n) (0 -- 3);
      ])

let mixed_inst_gen =
  Q.Gen.(
    let rel_gen ar =
      map
        (fun rows -> Relation.of_rows rows)
        (list_size (0 -- 8) (list_size (return ar) mixed_value_gen))
    in
    let* a = rel_gen 1 and* b = rel_gen 2 and* c = rel_gen 3 in
    return (Instance.of_list [] |> Instance.set "a" a |> Instance.set "b" b |> Instance.set "c" c))

(* a program whose first rule reads the domain (X is bound only by a
   negative literal) and whose constants overlap the instance's values *)
let dom_program_gen =
  Q.Gen.(
    let* k = list_size (0 -- 3) mixed_value_gen in
    let consts = List.filter (fun v -> not (Value.is_invented v)) k in
    let rule c =
      { Datalog.Ast.head = [ Datalog.Ast.HPos (Datalog.Ast.atom "q" [ Datalog.Ast.var "X"; Datalog.Ast.cst c ]) ];
        body = [ Datalog.Ast.BNeg (Datalog.Ast.atom "a" [ Datalog.Ast.var "X" ]) ];
        forall = [] }
    in
    return (prog "q(X, X) :- !a(X)." @ List.map rule consts))

let prop_domain_oracle =
  prop "id-based values/adom/program_dom = set-based oracle"
    (Q.make
       ~print:(fun (p, i) ->
         Printf.sprintf "program:\n%s\ninstance:\n%s"
           (Datalog.Pretty.program_to_string p)
           (Instance.to_string i))
       Q.Gen.(pair dom_program_gen mixed_inst_gen))
    (fun (p, i) ->
      let plans = Datalog.Eval_util.plans (Datalog.Eval_util.prepare p) in
      Instance.fold
        (fun _ r ok -> ok && List.equal Value.equal (Relation.values r) (oracle_values r))
        i true
      && List.equal Value.equal (Instance.adom i) (oracle_adom i)
      && List.equal Value.equal
           (Datalog.Eval_util.program_dom p plans i)
           (oracle_program_dom p i)
      (* a safe program never reads the domain: none is computed *)
      && Datalog.Eval_util.program_dom tc_program
           (Datalog.Eval_util.plans (Datalog.Eval_util.prepare tc_program))
           i
         = [])

(* --- engines agree on rules that read the domain ------------------------- *)

(* rules whose head variable is bound only by a negative literal
   (Example 4.4), beside the positive and negated-edb pools; [c] is a
   program constant that need not occur in the instance *)
let dom_rule_pool =
  [
    "r(X) :- !e(X).";
    "q(X, Y) :- e(X), !g(X, Y).";
    "r(Y) :- !g(c, Y).";
    "s(X) :- !p(X).";
    "s(Y) :- !q(c, Y), !e(Y).";
  ]

(* The naive oracle: strata in order, each a naive fixpoint over a
   domain from the set-based definition. *)
let naive_strata p inst =
  match Datalog.Stratify.stratify p with
  | Error msg -> Q.Test.fail_report msg
  | Ok { Datalog.Stratify.strata; _ } ->
      let dom = oracle_program_dom p inst in
      List.fold_left
        (fun cur stratum ->
          fst (Datalog.Eval_util.naive_fixpoint (Datalog.Eval_util.prepare stratum) ~dom cur))
        inst strata

let prop_dom_engines_agree =
  prop "seminaive/stratified/semipositive/wellfounded = naive oracle (need_dom rules)"
    (prog_inst_arb (rule_pool @ dom_rule_pool @ neg_rule_pool))
    (fun (p, i) ->
      Q.assume (Datalog.Stratify.is_stratifiable p);
      let oracle = naive_strata p i in
      let w = Datalog.Wellfounded.eval p i in
      Instance.equal oracle (Datalog.Stratified.eval p i).Datalog.Stratified.instance
      && Datalog.Wellfounded.is_total w
      && Instance.equal oracle w.Datalog.Wellfounded.true_facts
      && ((not (Datalog.Stratify.is_semipositive p))
         || Instance.equal oracle
              (Datalog.Semipositive.eval p i).Datalog.Semipositive.instance)
      && (match Datalog.Ast.check_datalog p with
         | exception Datalog.Ast.Check_error _ -> true
         | () ->
             Instance.equal oracle
               (Datalog.Seminaive.eval p i).Datalog.Seminaive.instance))

(* instance parse/pp roundtrip *)
let prop_instance_roundtrip =
  prop "instance pp/parse roundtrip" graph_arb (fun (i, _, _, _) ->
      Instance.equal i (Instance.parse_facts (Instance.to_string i)))

let suite =
  [
    prop_engines_agree_positive;
    prop_tc_oracle;
    prop_fixpoint_idempotent;
    prop_positive_monotone;
    prop_seminaive_stress_agree;
    prop_stratified_equals_wellfounded;
    prop_stratified_unique_stable;
    prop_wf_sandwich;
    prop_genericity;
    prop_inflationary_strategies;
    prop_inflationary_trace_monotone;
    prop_magic_sound_complete;
    prop_fo_compile;
    prop_fo_compiled_equals_naive;
    Alcotest.test_case "IFP-TC = inflationary engine at n=300" `Quick
      test_ifp_tc_matches_inflationary_large;
    prop_pretty_roundtrip;
    prop_nd_walks_in_effect;
    prop_instance_roundtrip;
    prop_domain_oracle;
    prop_dom_engines_agree;
  ]
