(* Lexer, parser, pretty-printer. *)
open Relational
open Helpers
module Ast = Datalog.Ast

let parse_rule s =
  try Datalog.Parser.parse_rule s with
  | Datalog.Parser.Parse_error (l, m) -> Alcotest.failf "line %d: %s" l m

let test_basic_rule () =
  let r = parse_rule "T(X, Y) :- G(X, Z), T(Z, Y)." in
  (match r.Ast.head with
  | [ Ast.HPos a ] ->
      Alcotest.(check string) "head pred" "T" a.Ast.pred;
      Alcotest.(check int) "head arity" 2 (List.length a.Ast.args)
  | _ -> Alcotest.fail "expected single positive head");
  Alcotest.(check int) "body size" 2 (List.length r.Ast.body)

let test_variables_vs_constants () =
  let r = parse_rule "p(X, x, 'Q', \"s\", 42, ?low) :- q(X, ?low)." in
  match r.Ast.head with
  | [ Ast.HPos a ] ->
      let expected =
        [
          Ast.Var "X";
          Ast.Cst (Value.Sym "x");
          Ast.Cst (Value.Sym "Q");
          Ast.Cst (Value.Str "s");
          Ast.Cst (Value.Int 42);
          Ast.Var "low";
        ]
      in
      Alcotest.(check bool) "terms" true (a.Ast.args = expected)
  | _ -> Alcotest.fail "bad head"

let test_negation_forms () =
  let r1 = parse_rule "p(X) :- q(X), !r(X)." in
  let r2 = parse_rule "p(X) :- q(X), not r(X)." in
  Alcotest.(check bool) "! and not equivalent" true (r1 = r2)

let test_head_negation_and_multi () =
  let r = parse_rule "!G(X, Y), mark(X) :- G(X, Y), G(Y, X)." in
  Alcotest.(check int) "two heads" 2 (List.length r.Ast.head);
  match r.Ast.head with
  | [ Ast.HNeg _; Ast.HPos _ ] -> ()
  | _ -> Alcotest.fail "expected retraction then assertion"

let test_bottom () =
  let r = parse_rule "bottom :- p(X), !q(X)." in
  Alcotest.(check bool) "bottom head" true (r.Ast.head = [ Ast.HBottom ])

let test_equality_literals () =
  let r = parse_rule "p(X, Y) :- q(X), q(Y), X != Y, X = X." in
  let eqs =
    List.filter
      (function Ast.BEq _ | Ast.BNeq _ -> true | _ -> false)
      r.Ast.body
  in
  Alcotest.(check int) "two (in)equalities" 2 (List.length eqs)

let test_forall_rule () =
  let r = parse_rule "ans(X) :- forall Y : p(X), !q(X, Y)." in
  Alcotest.(check (list string)) "forall vars" [ "Y" ] r.Ast.forall

let test_zero_ary () =
  let r = parse_rule "delay :- p(X)." in
  (match r.Ast.head with
  | [ Ast.HPos a ] -> Alcotest.(check int) "0-ary" 0 (List.length a.Ast.args)
  | _ -> Alcotest.fail "bad head");
  let r2 = parse_rule "done()." in
  Alcotest.(check int) "fact rule" 0 (List.length r2.Ast.body)

let test_facts_and_arrow_variants () =
  let p1 = prog "G(a, b). T(X,Y) :- G(X,Y)." in
  let p2 = prog "G(a, b). T(X,Y) <- G(X,Y)." in
  Alcotest.(check bool) ":- and <- equivalent" true (p1 = p2)

let test_comments () =
  let p =
    prog
      {|
        % line comment
        // another
        /* block /* nested */ still comment */
        p(a).
      |}
  in
  Alcotest.(check int) "one rule" 1 (List.length p)

let test_queries () =
  let { Datalog.Parser.program; queries } =
    Datalog.Parser.parse "T(X,Y) :- G(X,Y). ?- T(a, X)."
  in
  Alcotest.(check int) "one rule" 1 (List.length program);
  match queries with
  | [ q ] -> Alcotest.(check string) "query pred" "T" q.Ast.pred
  | _ -> Alcotest.fail "expected one query"

let test_parse_errors () =
  List.iter
    (fun src ->
      match Datalog.Parser.parse_program src with
      | exception Datalog.Parser.Parse_error _ -> ()
      | exception Datalog.Lexer.Lex_error _ -> ()
      | _ -> Alcotest.failf "expected error for %S" src)
    [
      "p(X :- q(X).";
      ":- q(X).";
      "p(X) q(X).";
      "p(X) :- q(X)";  (* missing dot *)
      "p('unterminated) :- q(X).";
      "p(\"unterminated) :- q(X).";
    ]

(* `p(X) :- .` is accepted as an empty body — drop it from the error list
   by testing it separately. *)
let test_empty_body_after_arrow () =
  let r = parse_rule "p(a) :- ." in
  Alcotest.(check int) "no body" 0 (List.length r.Ast.body)

let test_lexer_errors_have_lines () =
  match Datalog.Parser.parse_program "p(a).\nq(#)." with
  | exception Datalog.Lexer.Lex_error (2, _) -> ()
  | exception e -> Alcotest.failf "wrong exception %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected lex error on line 2"

(* integer literals are [-?[0-9]+] over the native int range: the
   extremes parse, one past them is a lex error on its own line (not an
   escaping [Failure "int_of_string"]) *)
let test_integer_literals () =
  let head_args src =
    match (parse_rule src).Ast.head with
    | [ Ast.HPos a ] -> a.Ast.args
    | _ -> Alcotest.fail "bad head"
  in
  Alcotest.(check bool)
    "native range" true
    (head_args "G(4611686018427387903, -4611686018427387904, -0, 007)."
    = List.map (fun n -> Ast.Cst (Value.Int n)) [ max_int; min_int; 0; 7 ]);
  List.iter
    (fun src ->
      match Datalog.Parser.parse_program src with
      | exception Datalog.Lexer.Lex_error (2, msg) ->
          Alcotest.(check bool)
            ("message names the range: " ^ msg)
            true
            (contains ~sub:"out of range" msg)
      | exception e ->
          Alcotest.failf "%S: wrong exception %s" src (Printexc.to_string e)
      | _ -> Alcotest.failf "%S: expected a lex error on line 2" src)
    [
      "p(a).\nG(X, 99999999999999999999) :- H(X).";
      "p(a).\nG(4611686018427387904).";
      "p(a).\nG(-4611686018427387905).";
    ]

(* round-trip: parse (pretty p) = p for a corpus of programs *)
let corpus =
  [
    "T(X, Y) :- G(X, Y).";
    "T(X, Y) :- G(X, Z), T(Z, Y).";
    "CT(X, Y) :- !T(X, Y).";
    "win(X) :- moves(X, Y), !win(Y).";
    "!G(X, Y) :- G(X, Y), G(Y, X).";
    "p(X, Y), !q(X) :- r(X), s(Y), X != Y.";
    "bottom :- p(X), !done().";
    "ans(X) :- forall Y, Z : p(X), !q(X, Y), !r(X, Z).";
    "p(42, \"str\", 'Sym', c).";
    "delay().";
  ]

let test_pretty_roundtrip () =
  List.iter
    (fun src ->
      let p = prog src in
      let printed = Datalog.Pretty.program_to_string p in
      let reparsed =
        try Datalog.Parser.parse_program printed
        with e ->
          Alcotest.failf "reparse of %S failed: %s" printed
            (Printexc.to_string e)
      in
      if p <> reparsed then
        Alcotest.failf "roundtrip mismatch: %S -> %S" src printed)
    corpus

let suite =
  [
    Alcotest.test_case "basic rule" `Quick test_basic_rule;
    Alcotest.test_case "variables vs constants" `Quick
      test_variables_vs_constants;
    Alcotest.test_case "negation forms" `Quick test_negation_forms;
    Alcotest.test_case "head negation / multi-head" `Quick
      test_head_negation_and_multi;
    Alcotest.test_case "bottom" `Quick test_bottom;
    Alcotest.test_case "(in)equality literals" `Quick test_equality_literals;
    Alcotest.test_case "forall rules" `Quick test_forall_rule;
    Alcotest.test_case "zero-ary atoms and facts" `Quick test_zero_ary;
    Alcotest.test_case "arrow variants" `Quick test_facts_and_arrow_variants;
    Alcotest.test_case "comments" `Quick test_comments;
    Alcotest.test_case "?- query directives" `Quick test_queries;
    Alcotest.test_case "parse errors raised" `Quick test_parse_errors;
    Alcotest.test_case "empty body after arrow" `Quick
      test_empty_body_after_arrow;
    Alcotest.test_case "integer literals: range and grammar" `Quick
      test_integer_literals;
    Alcotest.test_case "lex errors carry line numbers" `Quick
      test_lexer_errors_have_lines;
    Alcotest.test_case "pretty/parse roundtrip corpus" `Quick
      test_pretty_roundtrip;
  ]
