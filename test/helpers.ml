(* Shared test helpers. *)
open Relational

let value = Alcotest.testable Value.pp Value.equal
let relation = Alcotest.testable Relation.pp Relation.equal

let instance =
  Alcotest.testable
    (fun ppf i -> Format.fprintf ppf "@[<v>%a@]" Instance.pp i)
    Instance.equal

let tuple = Alcotest.testable Tuple.pp Tuple.equal

let v = Value.sym
let i n = Value.Int n

let t vs = Tuple.of_list vs
let rel rows = Relation.of_rows rows

(* Parse a program from text, failing the test with location info. *)
let prog src =
  try Datalog.Parser.parse_program src with
  | Datalog.Parser.Parse_error (line, msg) ->
      Alcotest.failf "parse error line %d: %s" line msg
  | Datalog.Lexer.Lex_error (line, msg) ->
      Alcotest.failf "lex error line %d: %s" line msg

let facts src =
  try Instance.parse_facts src with Failure msg -> Alcotest.fail msg

(* [contains ~sub s]: [sub] occurs in [s]. *)
let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Binary relation of sym pairs. *)
let pairs ps = Relation.of_rows (List.map (fun (a, b) -> [ v a; v b ]) ps)

let unary xs = Relation.of_rows (List.map (fun a -> [ v a ]) xs)

let tc_program =
  prog {|
    T(X, Y) :- G(X, Y).
    T(X, Y) :- G(X, Z), T(Z, Y).
  |}

let check_rel msg expected actual = Alcotest.check relation msg expected actual
