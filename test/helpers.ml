(* Shared test helpers. *)
open Relational
module Q = QCheck

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

(* A Db holding [ts] as facts of [p]: a delta for [Db.absorb_new] or for
   a delta pass. *)
let delta_db p ts =
  let d = Datalog.Matcher.Db.of_instance Instance.empty in
  List.iter (fun x -> ignore (Datalog.Matcher.Db.insert d p x : bool)) ts;
  d

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

(* Random programs for qcheck properties.

   Random positive Datalog programs over a fixed schema:
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

(* rules for random stratified programs *)
let strat_pool = rule_pool @ neg_rule_pool

(* rules that stress the delta engine's compiled plans: repeated
   variables inside one atom, constants in body atoms, and bodies with
   several positive occurrences of the same recursive (delta) predicate —
   each occurrence needs its own delta pass, and dedup across passes must
   not lose substitutions *)
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

let print_prog_inst (p, i) =
  Printf.sprintf "program:\n%s\ninstance:\n%s"
    (Datalog.Pretty.program_to_string p)
    (Instance.to_string i)

let prog_inst_gen pool =
  Q.Gen.(
    let* p = program_gen pool in
    let* i = inst_gen in
    return (p, i))

let prog_inst_arb pool = Q.make ~print:print_prog_inst (prog_inst_gen pool)

(* [with_head_facts (p, inst)] adds 0–3 facts of [p]'s head predicates
   to [inst], over the vertices [inst_gen] draws: facts of a derived
   predicate that are stored before evaluation starts. *)
let with_head_facts (p, inst) =
  let heads =
    List.sort_uniq compare
      (List.concat_map
         (fun (r : Datalog.Ast.rule) ->
           List.filter_map
             (fun h ->
               Option.map
                 (fun (a : Datalog.Ast.atom) -> (a.pred, List.length a.args))
                 (Datalog.Ast.atom_of_hlit h))
             r.head)
         p)
  in
  Q.Gen.(
    let* k = if heads = [] then return 0 else 0 -- 3 in
    let fact =
      let* pred, arity = oneofl heads in
      let* vs = list_repeat arity (0 -- 5) in
      return (pred, Tuple.of_list (List.map (fun n -> Graph_gen.vertex n) vs))
    in
    let* fs = list_repeat k fact in
    return
      ( p,
        List.fold_left (fun i (pred, t) -> Instance.add_fact pred t i) inst fs
      ))

(* The line-based fact parser that [Instance.parse_facts] replaced, kept
   as the loader's test oracle. It differs from the loader in the two
   places the loader fixed: it splits arguments on every comma, even
   inside a string, and it ends a string at any quote, ignoring a
   backslash escape; and it reports an unterminated last statement on
   the file's last line, blank or not. *)
let oracle_parse_facts text =
  let parse_one_fact lineno stmt i =
    let stmt = String.trim stmt in
    if stmt = "" then i
    else
      let fail msg = failwith (Printf.sprintf "facts line %d: %s" lineno msg) in
      match String.index_opt stmt '(' with
      | None -> fail (Printf.sprintf "expected pred(args), got %S" stmt)
      | Some lp ->
          if stmt.[String.length stmt - 1] <> ')' then
            fail "expected closing parenthesis";
          let name = String.trim (String.sub stmt 0 lp) in
          if name = "" then fail "empty predicate name";
          let inside = String.sub stmt (lp + 1) (String.length stmt - lp - 2) in
          let args =
            if String.trim inside = "" then []
            else
              String.split_on_char ',' inside
              |> List.map (fun s ->
                     let s = String.trim s in
                     if s = "" then fail "empty argument";
                     match Value.parse s with
                     | v -> v
                     | exception Invalid_argument msg -> fail msg)
          in
          let r = Instance.find name i in
          (match Relation.arity r with
          | Some a when a <> List.length args ->
              fail
                (Printf.sprintf "%s has arity %d, got %d argument(s)" name a
                   (List.length args))
          | _ -> ());
          Instance.set name (Relation.add (Tuple.of_list args) r) i
  in
  let lines = String.split_on_char '\n' text in
  let buf = Buffer.create 64 in
  let inst = ref Instance.empty in
  let in_string = ref false in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      let n = String.length line in
      let i = ref 0 in
      let in_comment = ref false in
      while (not !in_comment) && !i < n do
        let c = line.[!i] in
        if !in_string then (
          Buffer.add_char buf c;
          if c = '"' then in_string := false)
        else if c = '%' || (c = '/' && !i + 1 < n && line.[!i + 1] = '/') then
          in_comment := true
        else if c = '"' then (
          Buffer.add_char buf c;
          in_string := true)
        else if c = '.' then (
          inst := parse_one_fact lineno (Buffer.contents buf) !inst;
          Buffer.clear buf)
        else Buffer.add_char buf c;
        incr i
      done;
      Buffer.add_char buf ' ')
    lines;
  (if String.trim (Buffer.contents buf) <> "" then
     let n = List.length lines in
     inst := parse_one_fact n (Buffer.contents buf) !inst);
  !inst

(* The Format printers the Buffer renderer ([Value.render],
   [Tuple.render_fact]) replaced, kept as its test oracles: [Value.pp]
   (fact-file dialect; a symbol the loader would not read back bare is
   quoted as in the program-term dialect), [Pretty.pp_value_term] and
   [Pretty.pp_fact] (program-term dialect), [Tuple.pp], [Relation.pp]
   and [Instance.pp].
   The relation and instance oracles sort with [List.sort Tuple.compare],
   independently of the sorted view. *)
let oracle_is_lower_ident s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let oracle_pp_quoted ppf s =
  let esc = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      if c = '\'' || c = '\\' then Buffer.add_char esc '\\';
      Buffer.add_char esc c)
    s;
  Format.fprintf ppf "'%s'" (Buffer.contents esc)

(* The fact-file dialect writes a symbol bare unless the loader could
   not read it back: empty, an integer literal, a blank at an edge, a
   leading quote, or one of the loader's separators, string and comment
   openers inside. *)
let oracle_reloads_bare s =
  let n = String.length s in
  let blank c = String.contains " \t\n\r\012" c in
  let rec has_sub i =
    i + 1 < n && ((s.[i] = '/' && s.[i + 1] = '/') || has_sub (i + 1))
  in
  n > 0
  && (let d = if s.[0] = '-' then String.sub s 1 (n - 1) else s in
      d = "" || not (String.for_all (fun c -> c >= '0' && c <= '9') d))
  && s.[0] <> '\''
  && (not (blank s.[0]))
  && (not (blank s.[n - 1]))
  && (not (String.exists (fun c -> String.contains ",.\"()%\n" c) s))
  && not (has_sub 0)

let oracle_pp_value ppf = function
  | Value.Int n -> Format.pp_print_int ppf n
  | Value.Str s -> Format.fprintf ppf "%S" s
  | Value.Sym s when oracle_reloads_bare s -> Format.pp_print_string ppf s
  | Value.Sym s -> oracle_pp_quoted ppf s
  | Value.New n -> Format.fprintf ppf "\xce\xbd%d" n

let oracle_pp_value_term ppf (v : Value.t) =
  match v with
  | Value.Sym s when oracle_is_lower_ident s -> Format.pp_print_string ppf s
  | Value.Sym s -> oracle_pp_quoted ppf s
  | Value.Int n -> Format.pp_print_int ppf n
  | Value.Str s -> Format.fprintf ppf "%S" s
  | Value.New n -> Format.fprintf ppf "'\xce\xbd%d'" n

let oracle_pp_args pp_value ppf tup =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    pp_value ppf (Tuple.to_list tup)

let oracle_pp_fact ppf (pred, tup) =
  Format.fprintf ppf "%s(%a)." pred (oracle_pp_args oracle_pp_value_term) tup

let oracle_pp_tuple ppf tup =
  Format.fprintf ppf "(%a)" (oracle_pp_args oracle_pp_value) tup

let oracle_sorted r =
  List.sort Tuple.compare (Relation.unordered_fold List.cons r [])

let oracle_pp_relation ppf r =
  Format.fprintf ppf "{@[<hov>%a@]}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       oracle_pp_tuple)
    (oracle_sorted r)

let oracle_pp_instance ppf i =
  let first = ref true in
  Instance.fold
    (fun name r () ->
      List.iter
        (fun t ->
          if !first then first := false else Format.fprintf ppf "@\n";
          Format.fprintf ppf "%s(%a)." name (oracle_pp_args oracle_pp_value) t)
        (oracle_sorted r))
    i ()
