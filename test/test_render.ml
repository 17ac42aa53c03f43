(* The Buffer renderer against the Format printers it replaced (kept in
   Helpers as oracles), and the integer-rank sorted view against
   [List.sort Tuple.compare]. *)
open Relational
open Helpers
module Q = QCheck
module M = Datalog.Matcher

let prop ?(count = 300) name arb f =
  QCheck_alcotest.to_alcotest (Q.Test.make ~count ~name arb f)

(* bytes that stress the [%S] escaper: quote, backslash, newline and the
   other named escapes, control and non-ASCII bytes, and the loader's
   separators *)
let str_char =
  Q.Gen.(
    oneof
      [
        oneofl
          [ '"'; '\\'; '\n'; '\t'; '\r'; '\b'; ','; '%'; '.'; '/'; ' ';
            '\''; '\000'; '\001'; '\031'; '\127' ];
        map Char.chr (128 -- 255);
        char_range 'a' 'z';
        char_range 'A' 'Z';
        char_range '0' '9';
      ])

let ident first =
  Q.Gen.(
    map2
      (fun c rest -> String.make 1 c ^ rest)
      first
      (string_size
         ~gen:
           (oneof
              [ char_range 'a' 'z'; char_range 'A' 'Z'; char_range '0' '9';
                return '_' ])
         (0 -- 6)))

let value_gen =
  Q.Gen.(
    oneof
      [
        map Value.int
          (oneof [ return min_int; return max_int; (-1000) -- 1000; int ]);
        map Value.str (string_size ~gen:str_char (0 -- 8));
        map Value.sym
          (oneof
             [
               ident (char_range 'a' 'z');
               ident (oneof [ char_range 'A' 'Z'; return '_' ]);
               string_size
                 ~gen:(oneof [ char_range 'a' 'z'; return ' '; return '\'' ])
                 (0 -- 6);
             ]);
        map (fun n -> Value.New n) (0 -- 10_000);
      ])

let value_arb = Q.make ~print:(Format.asprintf "%a" oracle_pp_value) value_gen
let show pp x = Format.asprintf "%a" pp x

let prop_value =
  prop "value: renderer = Format oracle, both dialects" value_arb (fun v ->
      let fact = show oracle_pp_value v in
      String.equal (Value.to_string v) fact
      && String.equal (show Value.pp v) fact
      && String.equal (Value.to_string_in Value.Term v)
           (show oracle_pp_value_term v))

let fact_arb =
  Q.make
    ~print:(fun (pred, vs) -> show oracle_pp_fact (pred, Tuple.of_list vs))
    Q.Gen.(pair (ident (char_range 'A' 'Z')) (list_size (0 -- 4) value_gen))

let prop_fact =
  prop "fact and tuple: renderer = Format oracle, both dialects" fact_arb
    (fun (pred, vs) ->
      let t = Tuple.of_list vs in
      let term = show oracle_pp_fact (pred, t) in
      String.equal (Tuple.fact_to_string Value.Term pred t) term
      && String.equal (show Datalog.Pretty.pp_fact (pred, t)) term
      && String.equal
           (Tuple.fact_to_string Value.Fact pred t)
           (Format.asprintf "%s(%a)." pred (oracle_pp_args oracle_pp_value) t)
      && String.equal (Tuple.to_string t) (show oracle_pp_tuple t)
      && String.equal (show Tuple.pp t) (show oracle_pp_tuple t))

(* a deterministic mixed-kind relation of [n] tuples of arity [ar] *)
let mixed_rel ~seed ~n ~ar =
  let st = Random.State.make [| seed |] in
  let rows =
    List.init n (fun _ ->
        List.init ar (fun _ -> Q.Gen.generate1 ~rand:st value_gen))
  in
  Relation.of_rows rows

let test_instance_box () =
  let i =
    Instance.empty
    |> Instance.set "P" (mixed_rel ~seed:1 ~n:300 ~ar:2)
    |> Instance.set "Q" (mixed_rel ~seed:2 ~n:10 ~ar:3)
    |> Instance.set "R" (mixed_rel ~seed:3 ~n:1 ~ar:0)
  in
  let boxed pp = Format.asprintf "@[<v 2>facts:@,%a@]@." pp i in
  Alcotest.(check string)
    "Instance.pp in a v box" (boxed oracle_pp_instance) (boxed Instance.pp);
  Alcotest.(check string)
    "Instance.to_string" (show oracle_pp_instance i) (Instance.to_string i)

(* EXPLAIN's const node prints its relation through Relation.pp: the
   hov box must wrap at the same tuples as the oracle's *)
let test_explain_const () =
  let r = mixed_rel ~seed:4 ~n:40 ~ar:2 in
  let boxed pp = Format.asprintf "@[<v 2>plan:@,@[<hov>%a@]@]@." pp () in
  let got = boxed (fun ppf () -> Algebra.pp ppf (Algebra.Const r)) in
  let want =
    boxed (fun ppf () -> Format.fprintf ppf "const%a" oracle_pp_relation r)
  in
  Alcotest.(check string) "const in a hov box" want got;
  Alcotest.(check bool)
    "the box wraps" true
    (List.length (String.split_on_char '\n' got) > 4)

(* --- the sorted view ------------------------------------------------- *)

(* Each case's values are made fresh (a per-case salt) and interned in a
   shuffled order before any tuple is built, so id order and value
   order disagree. *)
let salt = ref 0

let fresh_values seed vs =
  incr salt;
  let tag = string_of_int !salt in
  let fresh = function
    | Value.Str s -> Value.Str (s ^ "~" ^ tag)
    | Value.Sym s -> Value.Sym (s ^ "~" ^ tag)
    | Value.New n -> Value.New ((!salt * 10_007) + n)
    | v -> v
  in
  let vs = List.map (List.map fresh) vs in
  let st = Random.State.make [| seed |] in
  List.concat vs
  |> List.map (fun v -> (Random.State.bits st, v))
  |> List.sort compare
  |> List.iter (fun (_, v) -> ignore (Value.Intern.id v));
  vs

let rel_arb =
  Q.make
    ~print:(fun (_, rows) ->
      String.concat "; "
        (List.map (fun r -> show oracle_pp_tuple (Tuple.of_list r)) rows))
    Q.Gen.(
      let* ar = 0 -- 4 in
      let* seed = int in
      (* both sides of Tuple.rank_sort's short-list cutoff *)
      let* rows =
        list_size (oneof [ 0 -- 40; 120 -- 400 ]) (list_repeat ar value_gen)
      in
      return (seed, rows))

let same_order a b = List.equal Tuple.equal a b

let prop_sorted_view =
  prop "to_list = List.sort Tuple.compare (arity 0-4, shuffled ids)" rel_arb
    (fun (seed, rows) ->
      let r = Relation.of_rows (fresh_values seed rows) in
      same_order (Relation.to_list r) (oracle_sorted r))

let syms = List.map (fun s -> [ Value.sym s ])

let test_interned_after_sort () =
  (* 200 values, past the short-list cutoff: the odd-numbered ones are
     interned in descending order and sorted; the even-numbered ones,
     which sort between them, are interned only afterwards *)
  let name k = Printf.sprintf "late%03d" k in
  let odd = List.init 100 (fun k -> name (199 - (2 * k))) in
  let r1 = Relation.of_rows (syms odd) in
  ignore (Relation.to_list r1);
  let even = List.init 100 (fun k -> name (2 * k)) in
  let r2 = Relation.union r1 (Relation.of_rows (syms even)) in
  Alcotest.(check (list string))
    "new ids take their value-order places"
    (List.init 200 (fun k -> "(" ^ name k ^ ")"))
    (List.map Tuple.to_string (Relation.to_list r2));
  Alcotest.(check bool)
    "oracle" true
    (same_order (Relation.to_list r2) (oracle_sorted r2));
  Alcotest.(check bool)
    "first view kept" true
    (same_order (Relation.to_list r1) (oracle_sorted r1))

let test_domains_share_view () =
  let st = Random.State.make [| 7 |] in
  let rows =
    List.init 3000 (fun _ ->
        List.init 3 (fun _ -> Q.Gen.generate1 ~rand:st value_gen))
  in
  let r = Relation.of_rows (fresh_values 7 rows) in
  let views =
    List.init 4 (fun _ -> Domain.spawn (fun () -> Relation.to_list r))
    |> List.map Domain.join
  in
  let want = oracle_sorted r in
  List.iteri
    (fun k v ->
      Alcotest.(check bool)
        (Printf.sprintf "domain %d" k)
        true (same_order v want))
    views

let test_matcher_order () =
  let st = Random.State.make [| 11 |] in
  let pick () = Q.Gen.generate1 ~rand:st value_gen in
  let rows n = List.init n (fun _ -> [ pick (); pick () ]) in
  let g = fresh_values 11 (rows 200) in
  (* chain G's targets into H's sources so the join has answers *)
  let h = List.map (fun row -> [ List.nth row 1; pick () ]) g in
  let inst =
    Instance.empty
    |> Instance.set "G" (Relation.of_rows g)
    |> Instance.set "H" (Relation.of_rows (fresh_values 12 h))
  in
  let rule = List.hd (prog "p(X, Y, Z) :- G(X, Y), H(Y, Z).") in
  let got = M.run (M.prepare rule) (M.Db.of_instance inst) in
  Alcotest.(check bool) "answers" true (List.length got >= 200);
  Alcotest.(check bool) "value order" true (got = List.sort compare got)

let suite =
  [
    prop_value;
    prop_fact;
    Alcotest.test_case "Instance.pp in a box = oracle" `Quick test_instance_box;
    Alcotest.test_case "EXPLAIN const in a box = oracle" `Quick
      test_explain_const;
    prop_sorted_view;
    Alcotest.test_case "ids interned after an earlier sort" `Quick
      test_interned_after_sort;
    Alcotest.test_case "four domains force one sorted view" `Quick
      test_domains_share_view;
    Alcotest.test_case "Matcher.run order is value order" `Quick
      test_matcher_order;
  ]
