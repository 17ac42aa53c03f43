(* Relational substrate: values, tuples, relations, schemas, instances,
   order adjunction, graph generators. *)
open Relational
open Helpers

(* --- values ------------------------------------------------------------ *)

let test_value_order () =
  Alcotest.(check bool) "ints before strings" true
    (Value.compare (Value.Int 99) (Value.Str "a") < 0);
  Alcotest.(check bool) "strings before syms" true
    (Value.compare (Value.Str "z") (Value.Sym "a") < 0);
  Alcotest.(check bool) "syms before invented" true
    (Value.compare (Value.Sym "zzz") (Value.New 0) < 0);
  Alcotest.(check int) "same int equal" 0
    (Value.compare (Value.Int 5) (Value.Int 5))

let test_value_parse_roundtrip () =
  List.iter
    (fun v ->
      Alcotest.check value "roundtrip" v (Value.parse (Value.to_string v)))
    [ Value.Int 42; Value.Int (-7); Value.Str "hello world"; Value.Sym "abc" ]

let test_value_parse_reject () =
  let reject s =
    match Value.parse s with
    | w ->
        Alcotest.failf "parse %S: expected Invalid_argument, got %s" s
          (Value.to_string w)
    | exception Invalid_argument _ -> ()
  in
  reject "";
  (* a leading quote commits to a string literal: trailing garbage after
     the closing quote must not be silently dropped *)
  reject {|"ab"cd|};
  reject {|"ab|};
  reject {|"|};
  reject {|"a"b"|};
  (* an integer literal outside the native int range *)
  reject "99999999999999999999";
  reject "4611686018427387904";
  reject "-4611686018427387905";
  (* escaped inner quotes still parse to the full string *)
  Alcotest.check value "escaped quote" (Value.Str "a\"b")
    (Value.parse {|"a\"b"|});
  Alcotest.check value "escaped newline" (Value.Str "a\nb")
    (Value.parse {|"a\nb"|})

let test_parse_facts_bad_string_literal () =
  match Instance.parse_facts {|P("ab"cd).|} with
  | _ -> Alcotest.fail "expected parse_facts to fail on \"ab\"cd"
  | exception Failure msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error names the line (%s)" msg)
        true
        (String.length msg >= 12 && String.equal (String.sub msg 0 12) "facts line 1")

let test_value_gen_distinct () =
  let g = Value.Gen.create () in
  let a = Value.Gen.fresh g and b = Value.Gen.fresh g in
  Alcotest.(check bool) "distinct" false (Value.equal a b);
  Alcotest.(check bool) "invented" true
    (Value.is_invented a && Value.is_invented b);
  Alcotest.(check int) "count" 2 (Value.Gen.count g);
  (* independent generators may collide with each other but not internally *)
  let g2 = Value.Gen.create () in
  Alcotest.(check bool) "fresh from fresh gen is invented" true
    (Value.is_invented (Value.Gen.fresh g2))

(* --- tuples ------------------------------------------------------------ *)

let test_tuple_ops () =
  let t1 = t [ v "a"; v "b"; v "c" ] in
  Alcotest.(check int) "arity" 3 (Tuple.arity t1);
  Alcotest.check value "get" (v "b") (Tuple.get t1 1);
  Alcotest.check tuple "project" (t [ v "c"; v "a" ]) (Tuple.project t1 [ 2; 0 ]);
  Alcotest.check tuple "concat"
    (t [ v "a"; v "b"; v "c"; v "a" ])
    (Tuple.concat t1 (t [ v "a" ]));
  Alcotest.check tuple "rename"
    (t [ v "c"; v "b"; v "a" ])
    (Tuple.rename t1 [| 2; 1; 0 |])

let test_tuple_out_of_bounds () =
  let t1 = t [ v "a" ] in
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Tuple.get: index 3 out of bounds (arity 1)") (fun () ->
      ignore (Tuple.get t1 3))

let test_tuple_immutable () =
  let arr = [| v "a" |] in
  let t1 = Tuple.make arr in
  arr.(0) <- v "b";
  Alcotest.check value "copy on make" (v "a") (Tuple.get t1 0)

let test_tuple_compare_arities () =
  Alcotest.(check bool) "shorter first" true
    (Tuple.compare (t [ v "z" ]) (t [ v "a"; v "a" ]) < 0)

(* --- relations ---------------------------------------------------------- *)

let test_relation_set_ops () =
  let r1 = pairs [ ("a", "b"); ("b", "c") ] in
  let r2 = pairs [ ("b", "c"); ("c", "d") ] in
  check_rel "union" (pairs [ ("a", "b"); ("b", "c"); ("c", "d") ])
    (Relation.union r1 r2);
  check_rel "inter" (pairs [ ("b", "c") ]) (Relation.inter r1 r2);
  check_rel "diff" (pairs [ ("a", "b") ]) (Relation.diff r1 r2);
  Alcotest.(check bool) "subset" true
    (Relation.subset (pairs [ ("a", "b") ]) r1);
  Alcotest.(check bool) "not subset" false (Relation.subset r2 r1)

let test_relation_arity_enforced () =
  let r = unary [ "a" ] in
  Alcotest.check_raises "mixed arity"
    (Invalid_argument
       "Relation: arity mismatch (relation has arity 1, tuple has 2)")
    (fun () -> ignore (Relation.add (t [ v "x"; v "y" ]) r))

let test_relation_values () =
  let r = pairs [ ("b", "a"); ("c", "a") ] in
  Alcotest.(check (list string))
    "active domain sorted"
    [ "a"; "b"; "c" ]
    (List.map Value.to_string (Relation.values r))

(* --- schema ------------------------------------------------------------- *)

let test_schema_basics () =
  let s = Schema.of_list [ Schema.rel "G" 2; Schema.rel "P" 1 ] in
  Alcotest.(check int) "arity_of" 2 (Schema.arity_of "G" s);
  Alcotest.(check bool) "mem" true (Schema.mem "P" s);
  Alcotest.(check (list string)) "names" [ "G"; "P" ] (Schema.names s)

let test_schema_conflict () =
  let s = Schema.of_list [ Schema.rel "G" 2 ] in
  Alcotest.check_raises "redeclare"
    (Invalid_argument "Schema.add: relation G redeclared with arity 3 (was 2)")
    (fun () -> ignore (Schema.add (Schema.rel "G" 3) s))

let test_schema_attrs () =
  let r = Schema.rel_attrs "emp" [ "name"; "dept" ] in
  Alcotest.(check int) "attr index" 1 (Schema.attr_index r "dept");
  Alcotest.check_raises "unknown attr"
    (Invalid_argument "Schema.attr_index: relation emp has no attribute salary")
    (fun () -> ignore (Schema.attr_index r "salary"));
  Alcotest.check_raises "unknown relation"
    (Invalid_argument "Schema.arity_of: unknown relation nope")
    (fun () ->
      ignore (Schema.arity_of "nope" (Schema.of_list [ Schema.rel "G" 2 ])));
  Alcotest.check_raises "no named attributes"
    (Invalid_argument
       "Schema.attr_index: relation G declares no attribute names (looking up \
        x)")
    (fun () -> ignore (Schema.attr_index (Schema.rel "G" 2) "x"))

(* --- instances ----------------------------------------------------------- *)

let test_instance_ops () =
  let i = facts "G(a,b). G(b,c). P(a)." in
  Alcotest.(check int) "total" 3 (Instance.total_facts i);
  Alcotest.(check (list string)) "names" [ "G"; "P" ] (Instance.names i);
  let dropped = Instance.drop [ "P" ] i in
  Alcotest.(check int) "after drop" 2 (Instance.total_facts dropped);
  let restricted = Instance.restrict [ "P" ] i in
  Alcotest.(check int) "after restrict" 1 (Instance.total_facts restricted);
  Alcotest.(check bool) "subset" true (Instance.subset restricted i);
  Alcotest.(check (list string))
    "adom" [ "a"; "b"; "c" ]
    (List.map Value.to_string (Instance.adom i))

(* [Value.parse] reads the program lexer's integer grammar, [-?[0-9]+]:
   the other forms [int_of_string] accepts stay symbols, as the printer
   shows them *)
let test_value_parse_integers () =
  List.iter
    (fun (s, want) -> Alcotest.check value s want (Value.parse s))
    [
      ("42", Value.Int 42);
      ("-7", Value.Int (-7));
      ("-0", Value.Int 0);
      ("007", Value.Int 7);
      ("4611686018427387903", Value.Int max_int);
      ("-4611686018427387904", Value.Int min_int);
      ("0x1F", Value.Sym "0x1F");
      ("0b11", Value.Sym "0b11");
      ("0o17", Value.Sym "0o17");
      ("1_000", Value.Sym "1_000");
      ("+5", Value.Sym "+5");
      ("-", Value.Sym "-");
      ("1e3", Value.Sym "1e3");
    ];
  (* in a facts file the same literal keeps its form end to end *)
  Alcotest.check instance "facts"
    (Instance.of_list
       [ ("G", [ [ v "a"; Value.Sym "0x1F" ]; [ v "b"; Value.Sym "+5" ] ]) ])
    (facts "G(a, 0x1F). G(b, +5).");
  match Instance.parse_facts "G(a, 1).\nG(b, 99999999999999999999).\n" with
  | exception Failure msg ->
      Alcotest.(check string)
        "typed error with its line"
        "facts line 2: Value.parse: integer literal 99999999999999999999 out \
         of range"
        msg
  | _ -> Alcotest.fail "out-of-range decimal accepted"

let test_instance_diff_union () =
  let a = facts "G(a,b). P(a)." and b = facts "G(a,b). Q(z)." in
  Alcotest.check instance "union"
    (facts "G(a,b). P(a). Q(z).")
    (Instance.union a b);
  Alcotest.check instance "diff" (facts "P(a).") (Instance.diff a b)

let test_instance_parse_errors () =
  List.iter
    (fun (src, frag) ->
      match Instance.parse_facts src with
      | exception Failure msg ->
          if
            not
              (String.length msg >= String.length frag
              && String.sub msg 0 (String.length frag) = frag)
          then Alcotest.failf "wrong error %S for %S" msg src
      | _ -> Alcotest.failf "expected failure for %S" src)
    [
      ("justtext.", "facts line 1: expected pred(args)");
      ("p(a.", "facts line 1");
      ("p(a,).", "facts line 1");
    ]

let test_instance_parse_comments_and_strings () =
  let i =
    facts
      {|
        % comment
        p("dotted. string"). // another
        q(1). q(-3).
      |}
  in
  Alcotest.(check int) "three facts" 3 (Instance.total_facts i);
  Alcotest.(check bool) "string fact" true
    (Instance.mem_fact "p" (t [ Value.Str "dotted. string" ]) i)

let test_instance_comment_markers_in_strings () =
  (* regression: '%' or '//' inside a quoted string must not start a
     comment — stripping has to be string-aware *)
  let i =
    facts
      {|
        p("50%"). % real comment
        q("http://example.org/x"). // real comment
        r("100% // of it").
      |}
  in
  Alcotest.(check int) "three facts" 3 (Instance.total_facts i);
  Alcotest.(check bool) "percent kept" true
    (Instance.mem_fact "p" (t [ Value.Str "50%" ]) i);
  Alcotest.(check bool) "slashes kept" true
    (Instance.mem_fact "q" (t [ Value.Str "http://example.org/x" ]) i);
  Alcotest.(check bool) "both kept" true
    (Instance.mem_fact "r" (t [ Value.Str "100% // of it" ]) i)

let test_instance_pp_roundtrip () =
  let i = facts "G(a, b). P(\"x y\"). Q(3)." in
  Alcotest.check instance "pp/parse roundtrip" i
    (Instance.parse_facts (Instance.to_string i))

let test_instance_map_values () =
  let i = facts "G(a,b)." in
  let f = function Value.Sym s -> Value.Sym (s ^ s) | v -> v in
  Alcotest.check instance "renamed" (facts "G(aa,bb).")
    (Instance.map_values f i)

(* --- order --------------------------------------------------------------- *)

let test_order_adjoin () =
  let i = facts "P(b). P(a). P(c)." in
  let o = Order.adjoin i in
  Alcotest.(check bool) "valid order" true (Order.is_ordered o);
  Alcotest.(check int) "succ size" 2
    (Relation.cardinal (Instance.find "succ" o));
  Alcotest.(check int) "lt size" 3 (Relation.cardinal (Instance.find "lt" o));
  Alcotest.(check bool) "first is a" true
    (Instance.mem_fact "first" (t [ v "a" ]) o);
  Alcotest.(check bool) "last is c" true
    (Instance.mem_fact "last" (t [ v "c" ]) o)

let test_order_empty () =
  let o = Order.adjoin Instance.empty in
  Alcotest.(check bool) "empty ordered" true (Order.is_ordered o);
  Alcotest.(check int) "no facts" 0 (Instance.total_facts o)

let test_order_invalid_detected () =
  (* a broken successor relation: two successors for one element *)
  let bad =
    facts "succ(a,b). succ(a,c). first(a). last(c). P(a). P(b). P(c)."
  in
  Alcotest.(check bool) "broken succ rejected" false (Order.is_ordered bad)

(* --- generators ------------------------------------------------------------ *)

let test_graph_gen_shapes () =
  let count name i = Relation.cardinal (Instance.find name i) in
  Alcotest.(check int) "chain edges" 9 (count "G" (Graph_gen.chain 10));
  Alcotest.(check int) "cycle edges" 10 (count "G" (Graph_gen.cycle 10));
  Alcotest.(check int) "complete edges" 20 (count "G" (Graph_gen.complete 5));
  Alcotest.(check int) "grid edges" 24 (count "G" (Graph_gen.grid 4 4));
  Alcotest.(check int) "two-cycles edges" 8 (count "G" (Graph_gen.two_cycles 4));
  Alcotest.(check int) "tree edges" 6 (count "G" (Graph_gen.binary_tree 3));
  Alcotest.(check int) "random edge count" 30
    (count "G" (Graph_gen.random ~seed:1 20 30))

let test_graph_gen_deterministic () =
  Alcotest.check instance "same seed, same graph"
    (Graph_gen.random ~seed:9 12 20)
    (Graph_gen.random ~seed:9 12 20)

let test_random_dag_acyclic () =
  let i = Graph_gen.random_dag ~seed:4 15 30 in
  let tc = Graph_gen.reference_tc (Instance.find "G" i) in
  Alcotest.(check bool) "no self-loop in TC" false
    (Relation.exists
       (fun tp -> Value.equal (Tuple.get tp 0) (Tuple.get tp 1))
       tc)

let test_reference_tc () =
  let edges = pairs [ ("a", "b"); ("b", "c") ] in
  check_rel "floyd-warshall"
    (pairs [ ("a", "b"); ("b", "c"); ("a", "c") ])
    (Graph_gen.reference_tc edges)

let suite =
  [
    Alcotest.test_case "value order" `Quick test_value_order;
    Alcotest.test_case "value parse roundtrip" `Quick
      test_value_parse_roundtrip;
    Alcotest.test_case "value parse rejects" `Quick test_value_parse_reject;
    Alcotest.test_case "value parse: integer grammar" `Quick
      test_value_parse_integers;
    Alcotest.test_case "invented values distinct" `Quick
      test_value_gen_distinct;
    Alcotest.test_case "tuple operations" `Quick test_tuple_ops;
    Alcotest.test_case "tuple bounds check" `Quick test_tuple_out_of_bounds;
    Alcotest.test_case "tuple immutability" `Quick test_tuple_immutable;
    Alcotest.test_case "tuple arity order" `Quick test_tuple_compare_arities;
    Alcotest.test_case "relation set ops" `Quick test_relation_set_ops;
    Alcotest.test_case "relation arity enforced" `Quick
      test_relation_arity_enforced;
    Alcotest.test_case "relation active domain" `Quick test_relation_values;
    Alcotest.test_case "schema basics" `Quick test_schema_basics;
    Alcotest.test_case "schema conflicts rejected" `Quick test_schema_conflict;
    Alcotest.test_case "schema named attributes" `Quick test_schema_attrs;
    Alcotest.test_case "instance operations" `Quick test_instance_ops;
    Alcotest.test_case "instance diff/union" `Quick test_instance_diff_union;
    Alcotest.test_case "fact parse errors" `Quick test_instance_parse_errors;
    Alcotest.test_case "fact parse: comments/strings" `Quick
      test_instance_parse_comments_and_strings;
    Alcotest.test_case "fact parse: comment markers inside strings" `Quick
      test_instance_comment_markers_in_strings;
    Alcotest.test_case "instance pp roundtrip" `Quick
      test_instance_pp_roundtrip;
    Alcotest.test_case "instance map_values" `Quick test_instance_map_values;
    Alcotest.test_case "order adjunction" `Quick test_order_adjoin;
    Alcotest.test_case "order on empty instance" `Quick test_order_empty;
    Alcotest.test_case "broken order detected" `Quick
      test_order_invalid_detected;
    Alcotest.test_case "generator shapes" `Quick test_graph_gen_shapes;
    Alcotest.test_case "generator determinism" `Quick
      test_graph_gen_deterministic;
    Alcotest.test_case "random DAG is acyclic" `Quick test_random_dag_acyclic;
    Alcotest.test_case "reference TC oracle" `Quick test_reference_tc;
  ]
