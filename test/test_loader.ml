(* The fact loader ([Instance.parse_facts]) and the relations it builds:
   the pp -> parse round trip, agreement with the line-based parser it
   replaced, loaded relations against [Relation.of_list] ones, concurrent
   reads, and the membership-set hand-off to [Matcher.Db]. *)
open Relational
open Helpers
module Q = QCheck

let count = 200
let prop name arb f =
  QCheck_alcotest.to_alcotest (Q.Test.make ~count ~name arb f)

(* --- round trip ------------------------------------------------------- *)

(* every character the scanner treats specially, plus a few plain ones *)
let str_gen =
  Q.Gen.(
    string_size ~gen:(oneofl [ ','; '.'; '%'; '/'; '"'; '\\'; '('; ')'; '\n';
                               '\t'; ' '; 'a'; 'z'; '0' ])
      (0 -- 8))

let sym_gen =
  Q.Gen.(
    map2
      (fun c rest -> String.make 1 c ^ rest)
      (char_range 'a' 'z')
      (string_size ~gen:(oneofl [ 'a'; 'q'; '0'; '9'; '_' ]) (0 -- 4)))

let value_gen =
  Q.Gen.(
    frequency
      [
        (2, map (fun n -> Value.Int n) (int_range (-1000) 1000));
        (1, map (fun n -> Value.Int n) (oneofl [ max_int; min_int ]));
        (3, map (fun s -> Value.Str s) str_gen);
        (3, map (fun s -> Value.Sym s) sym_gen);
      ])

let instance_gen =
  Q.Gen.(
    let rel name =
      let* arity = 0 -- 3 in
      let* rows = list_size (0 -- 12) (list_repeat arity value_gen) in
      return (name, rows)
    in
    let* rels = flatten_l [ rel "P"; rel "Q"; rel "edge_2" ] in
    return (Instance.of_list rels))

let instance_arb =
  Q.make ~print:(fun i -> Instance.to_string i) instance_gen

let prop_roundtrip =
  prop "pp -> parse round trip (mixed values, special characters)"
    instance_arb (fun i ->
      Instance.equal i (Instance.parse_facts (Instance.to_string i)))

(* Term-dialect answers ([run -a], [query], serve) reload too: symbols
   that are not lower identifiers are written quoted, with escapes, and
   the loader's quoted-symbol token reads them back. The symbols here
   hold every byte the scanner or the quoting treats specially. *)
let term_sym_gen =
  Q.Gen.(
    string_size
      ~gen:(oneofl [ 'a'; 'Z'; '_'; '0'; '\''; '\\'; ','; '.'; '%'; '/';
                     '"'; '('; ')'; ' '; '\n'; '\t' ])
      (0 -- 6))

let term_instance_gen =
  Q.Gen.(
    let value =
      frequency
        [
          (1, map (fun n -> Value.Int n) (int_range (-1000) 1000));
          (2, map (fun s -> Value.Str s) str_gen);
          (1, map (fun s -> Value.Sym s) sym_gen);
          (4, map (fun s -> Value.Sym s) term_sym_gen);
        ]
    in
    let rel name =
      let* arity = 0 -- 3 in
      let* rows = list_size (0 -- 8) (list_repeat arity value) in
      return (name, rows)
    in
    let* rels = flatten_l [ rel "P"; rel "Q" ] in
    return (Instance.of_list rels))

let term_text i =
  let b = Buffer.create 256 in
  Instance.iter_facts
    (fun name t ->
      Tuple.render_fact Value.Term b name t;
      Buffer.add_char b '\n')
    i;
  Buffer.contents b

let prop_term_roundtrip =
  prop "Term render -> parse round trip (quoted symbols)"
    (Q.make ~print:term_text term_instance_gen)
    (fun i -> Instance.equal i (Instance.parse_facts (term_text i)))

(* Full [run] output is the Fact dialect ({!Instance.to_string}): it
   writes symbols bare where the loader reads them back, and quoted
   elsewhere. The symbols come from an alphabet of the scanner's special
   bytes, edge blanks and digits, integer literals among them. *)
let hostile_sym_gen =
  Q.Gen.(
    frequency
      [
        ( 4,
          string_size
            ~gen:(oneofl [ 'a'; 'Z'; '_'; '0'; '4'; '-'; '\''; '\\'; ',';
                           '.'; '%'; '/'; '"'; '('; ')'; ' '; '\n'; '\t';
                           '\r' ])
            (0 -- 6) );
        (1, map string_of_int (int_range (-50) 50));
      ])

let prop_fact_roundtrip =
  prop "Fact render -> parse round trip (hostile symbols)"
    (Q.make ~print:Instance.to_string
       Q.Gen.(
         let value =
           frequency
             [
               (1, map (fun n -> Value.Int n) (int_range (-1000) 1000));
               (1, map (fun s -> Value.Str s) str_gen);
               (4, map (fun s -> Value.Sym s) hostile_sym_gen);
             ]
         in
         let rel name =
           let* arity = 0 -- 3 in
           let* rows = list_size (0 -- 8) (list_repeat arity value) in
           return (name, rows)
         in
         map Instance.of_list (flatten_l [ rel "P"; rel "Q" ])))
    (fun i -> Instance.equal i (Instance.parse_facts (Instance.to_string i)))

let test_quoted_symbols () =
  let one src =
    match Instance.to_string (Instance.parse_facts src) with
    | s -> s
    | exception Failure msg -> "Failure: " ^ msg
  in
  let syms src =
    Instance.find "P" (Instance.parse_facts src)
    |> Relation.to_list
    |> List.map (fun t -> Value.to_string_in Value.Term (Tuple.get t 0))
  in
  Alcotest.(check (list string))
    "quoted and bare symbols are one value" [ "'Abc'"; "'_u'" ]
    (syms "P('Abc'). P(Abc). P('_u'). P(_u).");
  Alcotest.(check (list string))
    "escaped quote and backslash" [ {|'a\\b'|}; {|'it\'s'|} ]
    (syms {|P('it\'s'). P('a\\b').|});
  Alcotest.(check string)
    "a quote inside a bare token is a plain byte" "P(it's)." (one "P(it's).");
  Alcotest.(check string)
    "',' '.' and '%' inside a quoted symbol, printed quoted again"
    "P('a, b. 50%', c)."
    (one "P('a, b. 50%', c).");
  (* the program lexer reads the same escapes *)
  Alcotest.(check bool)
    "program lexer agrees" true
    (Datalog.Parser.parse_atom {|P('it\'s', 'a\\b', 'c\d')|}
     = Datalog.Ast.atom "P"
         (List.map Datalog.Ast.sym [ "it's"; {|a\b|}; {|c\d|} ]));
  Alcotest.(check string)
    "trailing bytes after the closing quote"
    "Failure: facts line 1: Value.parse: malformed quoted symbol 'ab'cd"
    (one "P('ab'cd).")

(* --- agreement with the old parser ------------------------------------ *)

(* Does [text] reach one of the two places where the loader deliberately
   differs from [oracle_parse_facts]: a ',' or a '\\' inside a string
   (by the oracle's string state), or an unterminated last statement
   with a line break after its last non-blank character? *)
let reaches_fix text =
  let n = String.length text in
  let in_string = ref false and in_comment = ref false and hit = ref false in
  let open_stmt = ref false and nl_after = ref false in
  String.iteri
    (fun i c ->
      if c = '\n' then (
        in_comment := false;
        if !open_stmt then nl_after := true)
      else if !in_comment then ()
      else if !in_string then (
        if c = ',' || c = '\\' then hit := true;
        if c = '"' then in_string := false;
        if not (String.contains " \t\r\012" c) then nl_after := false)
      else if c = '%' || (c = '/' && i + 1 < n && text.[i + 1] = '/') then
        in_comment := true
      else if c = '.' then (
        open_stmt := false;
        nl_after := false)
      else if String.contains " \t\r\012" c then ()
      else (
        if c = '"' then in_string := true;
        open_stmt := true;
        nl_after := false))
    text;
  !hit || (!open_stmt && !nl_after)

let fact_text_gen =
  Q.Gen.(
    let name = oneofl [ "P"; "Q"; "G"; ""; " R "; "a b"; "P\"x\"" ] in
    let arg =
      oneofl
        [ "a"; "b1"; "-3"; "42"; "007"; "\"s t\""; "\"x.y\""; "\"50%\"";
          "\"u//v\""; "\"(p)\""; ""; "  "; "\"ab\"cd"; "\""; "0x1F";
          "99999999999999999999"; "("; ")"; "x y"; "\"a\nb\"" ]
    in
    let sep = oneofl [ ", "; ","; " , "; ",\n"; ", % c\n" ] in
    let ender =
      oneofl
        [ "."; ". "; ".\n"; "\n"; ". % comment\n"; " // c\n. "; ".\n\n"; "";
          ". // x. \"y\n"; " % a.b, c\n."; ". // tail"; " % tail" ]
    in
    let stmt =
      let* n = name
      and* args = list_size (0 -- 3) arg
      and* seps = list_repeat 3 sep in
      let* shape = 0 -- 9 and* e = ender in
      let body =
        List.mapi
          (fun k a -> if k = 0 then a else List.nth seps (k - 1) ^ a)
          args
        |> String.concat ""
      in
      let s =
        match shape with
        | 0 -> n ^ "(" ^ body
        | 1 -> n ^ body ^ ")"
        | 2 -> "% " ^ n ^ "(" ^ body ^ ")\n" ^ n ^ "(" ^ body ^ ")"
        | 3 -> n ^ "(\n" ^ body ^ "\n)"
        | _ -> n ^ "(" ^ body ^ ")"
      in
      return (s ^ e)
    in
    map (String.concat "") (list_size (0 -- 6) stmt))

type outcome = Loaded of Instance.t | Failed of string

let outcome parse text =
  match parse text with i -> Loaded i | exception Failure msg -> Failed msg

let show = function
  | Loaded i -> "instance:\n" ^ Instance.to_string i
  | Failed msg -> "Failure: " ^ msg

let prop_oracle =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:1000 ~max_gen:20_000
       ~name:"loader = old parser on texts outside the two fixes"
       (Q.make ~print:(fun s -> Printf.sprintf "%S" s) fact_text_gen)
       (fun text ->
         Q.assume (not (reaches_fix text));
         match
           (outcome Instance.parse_facts text, outcome oracle_parse_facts text)
         with
         | Loaded a, Loaded b when Instance.equal a b -> true
         | Failed a, Failed b when String.equal a b -> true
         | got, want ->
             Q.Test.fail_reportf "loader %s\noracle %s" (show got) (show want)))

(* the two fixes, and the line of an unterminated last statement *)
let test_fixes () =
  let one src =
    match Instance.to_string (Instance.parse_facts src) with
    | s -> s
    | exception Failure msg -> "Failure: " ^ msg
  in
  Alcotest.(check string) "comma in a string" {|P("a,b").|} (one {|P("a,b").|});
  Alcotest.(check string)
    "escaped quote" "P(c).\nQ(\"a\\\"b\")."
    (one "Q(\"a\\\"b\"). P(c).");
  Alcotest.(check string)
    "escaped backslash ends before the quote" "P(\"a\\\\\", c)."
    (one {|P("a\\", c).|});
  Alcotest.(check string)
    "unterminated last statement: the line of its last character"
    "Failure: facts line 2: expected closing parenthesis"
    (one "P(a).\nP(b,\n\n");
  Alcotest.(check string)
    "a comment after it does not count"
    "Failure: facts line 2: expected closing parenthesis"
    (one "P(a).\nP(b,\n% more\n")

(* [intern.hits] counts every token that resolved to an interned value,
   whether the loader's cache or the intern table answered *)
let test_intern_hits () =
  (* the same text shape over fresh tokens for each parser *)
  let src tag =
    let tok = "hits_probe_" ^ tag and q = "hits_other_" ^ tag in
    Printf.sprintf "P(%s, %s). P(%s, %s).\nP(%s, %s). P(%s, %s)." tok tok tok q
      q tok tok tok
  in
  let hits parse text =
    let h0 = Value.Intern.hits () in
    ignore (parse text);
    Value.Intern.hits () - h0
  in
  Alcotest.(check int) "same hits as one Intern.id per token"
    (hits oracle_parse_facts (src "oracle"))
    (hits Instance.parse_facts (src "loader"))

(* --- loaded relations ------------------------------------------------- *)

let tuples_gen =
  Q.Gen.(list_size (0 -- 40) (pair (0 -- 9) (0 -- 9)))

let to_tuple (a, b) = t [ i a; v (Printf.sprintf "n%d" b) ]

(* a fresh loaded relation over [ps] (duplicates included) *)
let loaded ps =
  let fact (a, b) = Printf.sprintf "R(%d, n%d)." a b in
  let src = String.concat "\n" (List.map fact ps) in
  Instance.find "R" (Instance.parse_facts src)

let sorted_lookup idx cols tup =
  List.sort Tuple.compare
    (Relation.Index.to_list (Relation.Index.lookup idx cols tup))

let agree ps qs probe =
  let reference = Relation.of_list (List.map to_tuple ps) in
  let other = Relation.of_list (List.map to_tuple qs) in
  let p = to_tuple probe in
  let r () = loaded ps in
  let same = Relation.equal in
  Relation.mem p (r ()) = Relation.mem p reference
  && Relation.mem_ids (Tuple.ids p) (r ())
     = Relation.mem_ids (Tuple.ids p) reference
  && same (Relation.add p (r ())) (Relation.add p reference)
  && same (Relation.remove p (r ())) (Relation.remove p reference)
  && same (Relation.union (r ()) other) (Relation.union reference other)
  && same (Relation.union other (r ())) (Relation.union reference other)
  && same (Relation.diff (r ()) other) (Relation.diff reference other)
  && same (Relation.diff other (r ())) (Relation.diff other reference)
  && same (Relation.inter (r ()) other) (Relation.inter reference other)
  && Relation.equal (r ()) reference
  && Relation.equal reference (r ())
  && Relation.compare (r ()) reference = 0
  && Int.compare (Relation.compare (r ()) other) 0
     = Int.compare (Relation.compare reference other) 0
  && Relation.to_list (r ()) = Relation.to_list reference
  && Relation.cardinal (r ()) = Relation.cardinal reference
  && Relation.subset (r ()) reference
  && Relation.values (r ()) = Relation.values reference
  && Relation.choose_opt (r ()) = Relation.choose_opt reference
  && List.for_all
       (fun cols ->
         let a = Relation.Index.of_relation (r ()) cols
         and b = Relation.Index.of_relation reference cols in
         sorted_lookup a cols p = sorted_lookup b cols p)
       [ [| 0 |]; [| 1 |]; [| 0; 1 |]; [| 1; 0 |] ]
  &&
  (* one value, used every way in turn: it never changes *)
  let r = r () in
  ignore (Relation.add p r);
  ignore (Relation.remove (List.hd (Relation.to_list reference @ [ p ])) r);
  ignore (Relation.union r other);
  ignore (Relation.index r [| 0 |]);
  ignore (Relation.index r [| 0 |]);
  same r reference && Relation.mem p r = Relation.mem p reference
  && Relation.to_list r = Relation.to_list reference

let prop_loaded_relation =
  prop "a loaded relation agrees with Relation.of_list on every operation"
    (Q.make
       ~print:
         Q.Print.(
           triple
             (list (pair int int))
             (list (pair int int))
             (pair int int))
       Q.Gen.(triple tuples_gen tuples_gen (pair (0 -- 9) (0 -- 9))))
    (fun (ps, qs, probe) -> agree ps qs probe)

(* 4 domains read one loaded relation at once, each in a different way:
   membership, the sorted fold, the unordered rows, an index *)
let test_concurrent_read () =
  let ps = List.init 3000 (fun k -> (k mod 97, k mod 89)) in
  let reference = Relation.of_list (List.map to_tuple ps) in
  let want = Relation.to_list reference in
  for _ = 1 to 5 do
    let r = loaded ps in
    let work d () =
      match d with
      | 0 -> List.for_all (fun p -> Relation.mem (to_tuple p) r) ps
      | 1 -> List.rev (Relation.fold List.cons r []) = want
      | 2 ->
          List.sort Tuple.compare (Relation.unordered_fold List.cons r [])
          = want
      | _ ->
          ignore (Relation.index r [| 0 |]);
          let idx = Option.get (Relation.index r [| 0 |]) in
          List.for_all
            (fun p ->
              let x = to_tuple p in
              List.exists (Tuple.equal x)
                (Relation.Index.to_list (Relation.Index.lookup idx [| 0 |] x)))
            ps
    in
    let ds = List.init 3 (fun d -> Domain.spawn (work (d + 1))) in
    let here = work 0 () in
    let there = List.map Domain.join ds in
    Alcotest.(check (list bool))
      "every domain agrees" [ true; true; true; true ]
      (here :: there);
    Alcotest.check relation "the relation is unchanged" reference r
  done

(* --- the Db membership hand-off --------------------------------------- *)

let test_db_borrowed_memset () =
  let inst = facts "G(a, b). G(b, c). H(x)." in
  let g = Instance.find "G" inst in
  let db = Datalog.Matcher.Db.of_instance inst in
  let m = Datalog.Matcher.Db.memset db "G" in
  let ab = t [ v "a"; v "b" ] and cd = t [ v "c"; v "d" ] in
  let ef = t [ v "e"; v "f" ] in
  Alcotest.(check bool) "adopted set answers" true
    (Datalog.Matcher.Db.memset_mem m (Tuple.ids ab));
  (* absorbing copies the adopted set: the relation's must not grow *)
  Datalog.Matcher.Db.absorb_new db "G" [ ef ];
  Alcotest.(check bool) "G(e, f) not in the loaded relation" false
    (Relation.mem ef g);
  Alcotest.(check bool) "handle sees the absorbed fact" true
    (Datalog.Matcher.Db.memset_mem m (Tuple.ids ef));
  Alcotest.(check bool) "assert" true (Datalog.Matcher.Db.insert db "G" cd);
  Alcotest.(check bool) "retract" true (Datalog.Matcher.Db.remove db "G" ab);
  (* the handle taken before the writes sees them *)
  Alcotest.(check bool) "handle sees the assert" true
    (Datalog.Matcher.Db.memset_mem m (Tuple.ids cd));
  Alcotest.(check bool) "handle sees the retract" false
    (Datalog.Matcher.Db.memset_mem m (Tuple.ids ab));
  (* the loaded instance, and its table, do not *)
  Alcotest.check instance "original instance unchanged"
    (Instance.of_list [ ("G", [ [ v "a"; v "b" ]; [ v "b"; v "c" ] ]);
                        ("H", [ [ v "x" ] ]) ])
    inst;
  Alcotest.(check bool) "G(a, b) still a member" true
    (Instance.mem_fact "G" ab inst);
  Alcotest.(check bool) "G(c, d) not a member" false
    (Instance.mem_fact "G" cd inst);
  Alcotest.(check bool) "G(e, f) not a member" false
    (Relation.mem_ids (Tuple.ids ef) g);
  Alcotest.check instance "db instance"
    (Instance.of_list
       [ ("G", [ [ v "b"; v "c" ]; [ v "c"; v "d" ]; [ v "e"; v "f" ] ]);
         ("H", [ [ v "x" ] ]) ])
    (Datalog.Matcher.Db.instance db)

(* a derived predicate with loaded facts: the fixpoint writes into the
   membership set it adopted, sequentially and sharded *)
let test_loaded_head_predicate () =
  let src = "G(a, b). G(b, c). G(c, d). T(a, b). T(c, d)." in
  let want =
    Instance.union (facts src)
      (Instance.of_list
         [ ("T", [ [ v "a"; v "c" ]; [ v "a"; v "d" ]; [ v "b"; v "c" ];
                   [ v "b"; v "d" ] ]) ])
  in
  List.iter
    (fun j ->
      Parallel.Pool.set_jobs j;
      Fun.protect
        ~finally:(fun () -> Parallel.Pool.set_jobs 1)
        (fun () ->
          Alcotest.check instance
            (Printf.sprintf "-j %d" j)
            want
            (Datalog.Seminaive.eval tc_program (facts src))
              .Datalog.Seminaive.instance))
    [ 1; 4 ]

let suite =
  [
    prop_roundtrip;
    prop_oracle;
    Alcotest.test_case "string commas, escapes, last-line errors" `Quick
      test_fixes;
    Alcotest.test_case "intern.hits counts cached tokens" `Quick
      test_intern_hits;
    prop_loaded_relation;
    Alcotest.test_case "four domains read one relation" `Quick
      test_concurrent_read;
    Alcotest.test_case "Db writes leave the loaded instance unchanged" `Quick
      test_db_borrowed_memset;
    Alcotest.test_case "derived predicate with loaded facts, -j 1 and 4"
      `Quick test_loaded_head_predicate;
    prop_term_roundtrip;
    prop_fact_roundtrip;
    Alcotest.test_case "quoted symbols" `Quick test_quoted_symbols;
  ]
