(* Semiring-annotated evaluation: the law battery per instance and the
   Annot_eval fixpoint against
   independent oracles — path counting for Count, Floyd–Warshall
   min-plus for MinPlus, and the untouched Boolean engines for Bool
   (byte-identical, the no-regression contract). *)
open Relational
open Helpers
module Q = QCheck
module S = Semiring
module AE = Datalog.Annot_eval

let count = 200

let prop name arb f =
  QCheck_alcotest.to_alcotest (Q.Test.make ~count ~name arb f)

(* --- value generators per instance -------------------------------------- *)

let gen_bool = Q.Gen.map (fun b -> S.B b) Q.Gen.bool

let gen_count =
  Q.Gen.(
    frequency [ (6, map (fun n -> S.C n) (0 -- 9)); (1, return (S.C S.omega)) ])

let gen_minplus =
  Q.Gen.(
    frequency
      [
        (6, map (fun n -> S.W n) (-9 -- 9));
        (1, return (S.W S.minplus_zero));
        (1, return (S.W S.minplus_bottom));
      ])

(* [why] is private: build values the way the evaluator does, from
   base-fact atoms combined with ⊗ (monomials) and ⊕ (polynomials) *)
let gen_why =
  let sr = S.get S.Why in
  Q.Gen.(
    let atom =
      map
        (fun (i, j) ->
          S.of_edb S.Why ~pred:"G"
            (Tuple.of_list [ Graph_gen.vertex i; Graph_gen.vertex j ]))
        (pair (0 -- 3) (0 -- 3))
    in
    let mono =
      map
        (List.fold_left sr.S.times sr.S.one)
        (list_size (1 -- 2) atom)
    in
    frequency
      [
        (1, return sr.S.zero);
        (6, map (List.fold_left sr.S.plus sr.S.zero) (list_size (1 -- 2) mono));
      ])

(* --- the law battery ----------------------------------------------------- *)

let law_tests name tag gen =
  let sr = S.get tag in
  let ( ++ ) = sr.S.plus and ( ** ) = sr.S.times in
  let eq = S.equal_v in
  let pr = S.to_string in
  let a1 = Q.make ~print:pr gen in
  let a2 =
    Q.make ~print:(fun (a, b) -> pr a ^ ", " ^ pr b) Q.Gen.(pair gen gen)
  in
  let a3 =
    Q.make
      ~print:(fun (a, b, c) -> String.concat ", " [ pr a; pr b; pr c ])
      Q.Gen.(triple gen gen gen)
  in
  [
    prop (name ^ ": ⊕ commutative") a2 (fun (a, b) -> eq (a ++ b) (b ++ a));
    prop (name ^ ": ⊕ associative") a3 (fun (a, b, c) ->
        eq (a ++ b ++ c) (a ++ (b ++ c)));
    prop (name ^ ": ⊗ commutative") a2 (fun (a, b) -> eq (a ** b) (b ** a));
    (* ** is right-associative in OCaml, so parenthesize the left fold *)
    prop (name ^ ": ⊗ associative") a3 (fun (a, b, c) ->
        eq ((a ** b) ** c) (a ** (b ** c)));
    prop (name ^ ": 0 is ⊕-identity") a1 (fun a -> eq (a ++ sr.S.zero) a);
    prop (name ^ ": 1 is ⊗-identity") a1 (fun a -> eq (a ** sr.S.one) a);
    prop (name ^ ": 0 annihilates ⊗") a1 (fun a ->
        eq (a ** sr.S.zero) sr.S.zero);
    prop (name ^ ": ⊗ distributes over ⊕") a3 (fun (a, b, c) ->
        eq (a ** (b ++ c)) ((a ** b) ++ (a ** c)));
  ]
  @ (if S.is_idempotent tag then
       [ prop (name ^ ": ⊕ idempotent") a1 (fun a -> eq (a ++ a) a) ]
     else [])
  (* Why's top only marks truncation — it is a prefix bound, not an
     absorbing element, so the absorption law is checked elsewhere *)
  @
  if tag <> S.Why then
    [
      prop (name ^ ": top absorbs ⊕") a1 (fun a ->
          eq (S.top tag ++ a) (S.top tag));
    ]
  else []

let test_mixed_instances_rejected () =
  let sr = S.get S.Count in
  (match sr.S.plus (S.C 1) (S.B true) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mixed ⊕ must be rejected");
  match sr.S.times (S.C 1) (S.W 3) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mixed ⊗ must be rejected"

(* --- Annot_eval vs oracles ----------------------------------------------- *)

let graph_gen =
  Q.Gen.(
    let* n = 1 -- 6 in
    let* m = 0 -- 12 in
    let* seed = 0 -- 10_000 in
    return (n, m, seed))

let graph_arb =
  Q.make
    ~print:(fun (n, m, seed) -> Printf.sprintf "n=%d m=%d seed=%d" n m seed)
    graph_gen

(* Count on an acyclic graph is the number of G-paths: each derivation
   tree of the linear TC program peels exactly one first edge, so trees
   and paths are in bijection. Oracle: memoized path counting. *)
let prop_count_is_path_count (n, m, seed) =
  let g = Graph_gen.random_dag ~seed n m in
  let r = AE.run S.Count tc_program g in
  let succs = Hashtbl.create 16 in
  Relation.iter
    (fun tup -> Hashtbl.add succs (Tuple.id tup 0) (Tuple.id tup 1))
    (Instance.find "G" g);
  let memo = Hashtbl.create 64 in
  let rec paths x y =
    match Hashtbl.find_opt memo (x, y) with
    | Some c -> c
    | None ->
        let c =
          List.fold_left
            (fun acc z -> acc + (if z = y then 1 else 0) + paths z y)
            0 (Hashtbl.find_all succs x)
        in
        Hashtbl.add memo (x, y) c;
        c
  in
  Relation.for_all
    (fun tup ->
      S.equal_v
        (AE.annotation r "T" tup)
        (S.C (paths (Tuple.id tup 0) (Tuple.id tup 1))))
    (Instance.find "T" r.AE.instance)

let sp_program =
  prog {|
    T(X, Y) :- E(X, Y, W).
    T(X, Z) :- E(X, Y, W), T(Y, Z).
  |}

let wgraph_gen =
  Q.Gen.(
    let* n = 2 -- 6 in
    let* m = 1 -- 12 in
    let* edges =
      list_repeat m (triple (0 -- (n - 1)) (0 -- (n - 1)) (1 -- 9))
    in
    return (n, edges))

let wgraph_arb =
  Q.make
    ~print:(fun (n, edges) ->
      Printf.sprintf "n=%d edges=%s" n
        (String.concat " "
           (List.map (fun (i, j, w) -> Printf.sprintf "%d-%d:%d" i j w) edges)))
    wgraph_gen

(* MinPlus on weighted TC is single-pair shortest path: oracle is
   Floyd–Warshall over the min-plus matrix (weights are positive, so
   walks never beat paths and the closure converges). *)
let prop_minplus_is_shortest_path (n, edges) =
  let inst =
    Instance.set "E"
      (Relation.of_rows
         (List.map
            (fun (x, y, w) ->
              [ Graph_gen.vertex x; Graph_gen.vertex y; Value.Int w ])
            edges))
      Instance.empty
  in
  let r = AE.run S.MinPlus sp_program inst in
  let inf = max_int / 2 in
  let dist = Array.make_matrix n n inf in
  List.iter
    (fun (x, y, w) -> dist.(x).(y) <- min dist.(x).(y) w)
    edges;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if dist.(i).(k) + dist.(k).(j) < dist.(i).(j) then
          dist.(i).(j) <- dist.(i).(k) + dist.(k).(j)
      done
    done
  done;
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let tup = Tuple.of_list [ Graph_gen.vertex i; Graph_gen.vertex j ] in
      let got = AE.annotation r "T" tup in
      let want = if dist.(i).(j) = inf then S.W S.minplus_zero else S.W dist.(i).(j) in
      if not (S.equal_v got want) then ok := false
    done
  done;
  !ok

(* The Boolean path is the untouched engines: same instance, printed
   byte for byte — across the sequential reference and semi-naive. *)
let prop_bool_byte_identical (n, m, seed) =
  let g = Graph_gen.random ~seed n m in
  let r = AE.run S.Bool tc_program g in
  let semi = (Datalog.Seminaive.eval tc_program g).Datalog.Seminaive.instance in
  let naive = (Datalog.Naive.eval tc_program g).Datalog.Naive.instance in
  Instance.equal r.AE.instance semi
  && Instance.equal r.AE.instance naive
  && String.equal (Instance.to_string r.AE.instance) (Instance.to_string semi)

(* --- unit: the shapes from the paper ------------------------------------- *)

let annot_str r pred tup = S.to_string (AE.annotation r pred tup)

let test_why_diamond () =
  let r =
    AE.run S.Why tc_program (facts "G(a, b). G(b, d). G(a, c). G(c, d).")
  in
  Alcotest.(check string)
    "two monomials" "G(a, b)*G(b, d) + G(a, c)*G(c, d)"
    (annot_str r "T" (t [ v "a"; v "d" ]));
  Alcotest.(check string)
    "base edge is its own label" "G(a, b)"
    (annot_str r "T" (t [ v "a"; v "b" ]))

let test_count_diamond () =
  let r =
    AE.run S.Count tc_program (facts "G(a, b). G(b, d). G(a, c). G(c, d).")
  in
  Alcotest.(check string) "two trees" "2" (annot_str r "T" (t [ v "a"; v "d" ]))

let test_count_cycle_is_inf () =
  let r = AE.run S.Count tc_program (facts "G(a, b). G(b, a). G(e, a).") in
  List.iter
    (fun (x, y) ->
      Alcotest.(check string)
        (Printf.sprintf "T(%s, %s)" x y)
        "inf"
        (annot_str r "T" (t [ v x; v y ])))
    [ ("a", "a"); ("a", "b"); ("e", "b") ];
  Alcotest.(check int) "all six infinite" 6 r.AE.stats.AE.infinite

let test_negation_unsupported () =
  match AE.run S.Count (prog "p(X) :- e(X), !q(X).") Instance.empty with
  | exception AE.Unsupported _ -> ()
  | _ -> Alcotest.fail "negation must be Unsupported"

let suite =
  law_tests "bool" S.Bool gen_bool
  @ law_tests "count" S.Count gen_count
  @ law_tests "minplus" S.MinPlus gen_minplus
  @ law_tests "why" S.Why gen_why
  @ [
      Alcotest.test_case "mixed instances rejected" `Quick
        test_mixed_instances_rejected;
      Alcotest.test_case "why diamond polynomial" `Quick test_why_diamond;
      Alcotest.test_case "count diamond = 2" `Quick test_count_diamond;
      Alcotest.test_case "count cycle = inf" `Quick test_count_cycle_is_inf;
      Alcotest.test_case "negation Unsupported" `Quick
        test_negation_unsupported;
      prop "count ≡ path-count oracle (random DAGs)" graph_arb
        prop_count_is_path_count;
      prop "minplus ≡ Floyd–Warshall oracle (random weighted graphs)"
        wgraph_arb prop_minplus_is_shortest_path;
      prop "bool ≡ set engines, byte-identical" graph_arb
        prop_bool_byte_identical;
    ]
