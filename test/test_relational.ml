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

(* The three ways to build one relation: [of_distinct] takes its rows as
   they are, [of_list] filters them, and [union] of two halves copies the
   larger half's set. All must hold the same set, and [remove] must take
   exactly the tuples it is given. *)
let prop_of_distinct_canonical =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60 ~name:"of_distinct = of_list = union"
       QCheck.(pair (int_range 0 3000) (int_range 0 10_000))
       (fun (n, seed) ->
         let st = Random.State.make [| seed |] in
         let ts =
           List.sort_uniq Tuple.compare
             (List.init n (fun _ ->
                  t
                    [
                      Value.Int (Random.State.int st 200);
                      v (string_of_int (Random.State.int st 200));
                    ]))
         in
         let bulk = Relation.of_distinct ts and listed = Relation.of_list ts in
         let half k = List.filteri (fun i _ -> i mod 2 = k) ts in
         let halves =
           Relation.union (Relation.of_distinct (half 0))
             (Relation.of_list (half 1))
         in
         List.for_all
           (fun r ->
             Relation.equal r bulk
             && Relation.cardinal r = List.length ts
             && List.for_all (fun x -> Relation.mem x r) ts
             && Relation.to_list r = ts)
           [ bulk; listed; halves; Relation.union bulk listed ]
         && Relation.is_empty (Relation.diff bulk listed)
         &&
         (* [remove] copies the set: a few dozen, not every tuple *)
         let gone = List.filteri (fun i _ -> i mod 37 = 0) ts in
         let r = List.fold_left (fun r x -> Relation.remove x r) bulk gone in
         Relation.cardinal r = List.length ts - List.length gone
         && List.for_all (fun x -> not (Relation.mem x r)) gone))

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

(* Tuple.Set against a Hashtbl model. The tuples come from a pool of 24
   over 25 id pairs, so the pool repeats id vectors (an [add] of a
   second tuple with the same ids must keep the first), and the sets
   start at 8 to 32 slots, so home slots collide and probe runs wrap past
   the end of the slot array. After every operation each pool tuple's
   membership is checked, which catches a removal that strands a tuple
   behind a hole. Each [copy] is checked at the end against the model
   at the time of the copy, after the original went on changing. *)
let prop_tuple_set_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:400 ~name:"Tuple.Set = Hashtbl model"
       QCheck.(
         triple (int_range 0 16) (int_range 0 10_000)
           (list_of_size Gen.(int_range 0 300)
              (pair (int_range 0 5) (int_range 0 23))))
       (fun (cap, seed, ops) ->
         let st = Random.State.make [| seed |] in
         let pool =
           Array.init 24 (fun _ ->
               Tuple.of_list
                 [
                   Value.Int (Random.State.int st 5);
                   Value.Int (Random.State.int st 5);
                 ])
         in
         let key x = Array.to_list (Tuple.ids x) in
         let s = Tuple.Set.create cap in
         let model : (int list, Tuple.t) Hashtbl.t = Hashtbl.create 16 in
         let agrees s model =
           Tuple.Set.length s = Hashtbl.length model
           && Array.for_all
                (fun x ->
                  let ids = Tuple.ids x in
                  Tuple.Set.mem s ids = Hashtbl.mem model (key x)
                  &&
                  match
                    (Tuple.Set.find_opt s ids, Hashtbl.find_opt model (key x))
                  with
                  | Some a, Some b -> a == b
                  | None, None -> true
                  | _ -> false)
                pool
         in
         let copies = ref [] in
         let step (op, i) =
           let x = pool.(i) in
           let k = key x in
           match op with
           | 0 | 1 ->
               let fresh = not (Hashtbl.mem model k) in
               if fresh then Hashtbl.replace model k x;
               Tuple.Set.add s x = fresh
           | 2 ->
               let held = Hashtbl.find_opt model k in
               Hashtbl.remove model k;
               Option.equal ( == ) (Tuple.Set.remove s x) held
           | 3 -> Tuple.Set.mem s (Tuple.ids x) = Hashtbl.mem model k
           | 4 ->
               Option.map Tuple.ids (Tuple.Set.find_opt s (Tuple.ids x))
               = Option.map Tuple.ids (Hashtbl.find_opt model k)
           | _ ->
               copies := (Tuple.Set.copy s, Hashtbl.copy model) :: !copies;
               Tuple.Set.length s = Hashtbl.length model
         in
         List.for_all (fun o -> step o && agrees s model) ops
         && List.for_all (fun (c, m) -> agrees c m) !copies))

(* A tuple is one flat block holding its ids and their hash. Sets of
   tuples of arities 0-4 over three values (so hashes share home slots
   and probe runs are long), against a list model: adds, removes (whose
   backward shift must keep every later tuple of the run reachable),
   probes by id vector and by tuple, and probes for tuples never added
   — fresh tuples equal to pool members among them, found by value,
   and the arity-0 tuple. The model is ordered: with no removal, the
   ordered reads yield insertion order; a removal frees the order of
   every member up to the next ordered read, which yields each member
   once, and later additions follow in order. A copy reads in the same
   order as its set. *)
let flat_value_lists =
  QCheck.Gen.(
    list_size (int_range 0 4)
      (oneofl [ Value.Int 0; Value.Int 1; Value.Sym "a" ]))

let prop_tuple_set_flat_model =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"Tuple.Set = list model, arities 0-4, flat tuples"
       QCheck.(
         pair (int_range 0 8)
           (list_of_size Gen.(int_range 0 200)
              (pair (int_range 0 5) (make flat_value_lists))))
       (fun (cap, ops) ->
         let s = Tuple.Set.create cap in
         (* the members in order; the first [!free] of them in any order,
            and all of them while a removal is pending ([stale]) *)
         let model = ref [] and free = ref 0 and stale = ref false in
         let held vs = List.exists (fun t -> Tuple.to_list t = vs) !model in
         let agrees vs =
           let probe = Tuple.of_list vs in
           let ids = Tuple.ids probe in
           let b = held vs in
           let h = Tuple.hash_ids ids in
           Tuple.Set.mem s ids = b
           && Tuple.Set.mem_hashed s ids h = b
           && Tuple.equal (Tuple.of_hashed ids h) probe
           && Tuple.Set.mem_tuple s probe = b
           && (match Tuple.Set.find_opt s ids with
              | Some t -> b && Tuple.to_list t = vs
              | None -> not b)
           && Tuple.Set.length s = List.length !model
         in
         let rec split k l =
           if k = 0 then ([], l)
           else
             match l with
             | [] -> ([], [])
             | x :: rest ->
                 let a, b = split (k - 1) rest in
                 (x :: a, b)
         in
         (* [got], an ordered read, against the model *)
         let in_order got =
           let keys l = List.map Tuple.to_list l in
           let gf, gr = split !free got and mf, mr = split !free !model in
           List.sort compare (keys gf) = List.sort compare (keys mf)
           && keys gr = keys mr
         in
         let read () =
           let got = ref [] in
           Tuple.Set.iter (fun t -> got := t :: !got) s;
           let got = List.rev !got in
           let same = List.equal ( == ) in
           let ok =
             in_order got
             && same (Tuple.Set.to_list s) got
             && same (Tuple.Set.fold (fun t acc -> t :: acc) s []) (List.rev got)
             && Option.equal ( == ) (Tuple.Set.choose s) (List.nth_opt got 0)
           in
           model := got;
           free := 0;
           stale := false;
           ok
         in
         let step (op, vs) =
           let t = Tuple.of_list vs in
           let ok =
             match op with
             | 0 | 1 ->
                 let fresh = not (held vs) in
                 if fresh then (
                   model := !model @ [ t ];
                   if !stale then free := List.length !model);
                 Tuple.Set.add s t = fresh
             | 2 | 3 ->
                 let was =
                   List.find_opt (fun u -> Tuple.to_list u = vs) !model
                 in
                 model := List.filter (fun u -> Tuple.to_list u <> vs) !model;
                 if was <> None then (
                   stale := true;
                   free := List.length !model);
                 Option.equal ( == ) (Tuple.Set.remove s t) was
             | 4 -> read ()
             | _ -> in_order (Tuple.Set.to_list (Tuple.Set.copy s))
           in
           ok && agrees vs
           && List.for_all (fun u -> agrees (Tuple.to_list u)) !model
         in
         List.for_all step ops && agrees [] && read ()))

(* The hash in the block is [hash_ids] of the ids; order and equality
   read the ids and agree with the decoded values; [ids] is a copy. *)
let prop_tuple_flat_layout =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500
       ~name:"Tuple: stored hash = hash_ids, compare/equal = decoded values"
       QCheck.(pair (make flat_value_lists) (make flat_value_lists))
       (fun (va, vb) ->
         let a = Tuple.of_list va and b = Tuple.of_list vb in
         let decoded_compare =
           match Int.compare (List.length va) (List.length vb) with
           | 0 -> List.compare Value.compare va vb
           | c -> c
         in
         let sign x = Int.compare x 0 in
         let ids = Tuple.ids a in
         Array.fill ids 0 (Array.length ids) (-1);
         Tuple.hash a = Tuple.hash_ids (Tuple.ids a)
         && Tuple.arity a = List.length va
         && Tuple.to_list a = va
         && sign (Tuple.compare a b) = sign decoded_compare
         && Tuple.equal a b = List.equal Value.equal va vb
         && Tuple.equal a (Tuple.of_prefix (Array.append (Tuple.ids a) [| 7 |])
                             (Tuple.arity a))))

(* Relation.Index against a list model: per key, the list that consing
   on add and [List.filter] on remove would give, newest first. The
   tuples are the 27 of arity 3 over three values, so keys collide on
   every index shape: packed on one column, packed on two, keyed by the
   id vector on all three. The index starts as [of_set] of an initial
   run of distinct tuples (the count-then-fill build), then takes random
   adds (of absent tuples only: the caller keeps them distinct) and
   removes (present or not). After every step each key's bucket must
   hold the model's tuples, with the matching size, in the model's
   order while only adds reached the key since it was last empty (a
   removal may reorder the rest: there the two must hold the same
   tuples); a key with no tuples reads as an empty bucket. *)
let prop_index_list_model =
  let pool =
    Array.init 27 (fun k ->
        Tuple.of_list
          [ Value.Int (k mod 3); Value.Int (k / 3 mod 3); Value.Int (k / 9) ])
  in
  let unheld = Tuple.of_list [ Value.Int 7; Value.Int 7; Value.Int 7 ] in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"Index = list model"
       QCheck.(
         triple (int_range 0 2)
           (list_of_size Gen.(int_range 0 27) (int_range 0 26))
           (list_of_size Gen.(int_range 0 200) (pair bool (int_range 0 26))))
       (fun (shape, init, ops) ->
         let cols = [| [| 0 |]; [| 1; 2 |]; [| 2; 0; 1 |] |].(shape) in
         let key x = Array.to_list (Array.map (Tuple.id x) cols) in
         let model : (int list, Tuple.t list) Hashtbl.t = Hashtbl.create 16 in
         let bucket x =
           Option.value (Hashtbl.find_opt model (key x)) ~default:[]
         in
         let held x = List.memq x (bucket x) in
         let add x = Hashtbl.replace model (key x) (x :: bucket x) in
         (* the keys a removal reached since their bucket was last empty *)
         let reordered = Hashtbl.create 16 in
         let sorted l = List.sort Tuple.compare l in
         let init =
           List.fold_left
             (fun acc i ->
               let x = pool.(i) in
               if List.memq x acc then acc else x :: acc)
             [] init
           |> List.rev
         in
         List.iter add init;
         let ix =
           Relation.Index.of_set cols (Relation.set (Relation.of_list init))
         in
         let agrees () =
           Array.for_all
             (fun x ->
               let b = Relation.Index.lookup ix cols x in
               let seen = ref [] in
               Relation.Index.iter (fun t -> seen := t :: !seen) b;
               let l = Relation.Index.to_list b in
               List.length l = Relation.Index.size b
               && (if Hashtbl.mem reordered (key x) then
                     List.equal ( == ) (sorted l) (sorted (bucket x))
                   else List.equal ( == ) l (bucket x))
               && List.equal ( == ) (List.rev !seen) l)
             pool
           && Relation.Index.size (Relation.Index.lookup ix cols unheld) = 0
         in
         let step (is_add, i) =
           let x = pool.(i) in
           if is_add then (
             if not (held x) then (
               add x;
               Relation.Index.add ix x))
           else (
             let rest = List.filter (fun u -> u != x) (bucket x) in
             if rest = [] then Hashtbl.remove reordered (key x)
             else if held x then Hashtbl.replace reordered (key x) ();
             Hashtbl.replace model (key x) rest;
             Relation.Index.remove ix x)
         in
         agrees ()
         && List.for_all
              (fun op ->
                step op;
                agrees ())
              ops))

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
    prop_of_distinct_canonical;
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
    prop_tuple_set_model;
    prop_index_list_model;
    prop_tuple_set_flat_model;
    prop_tuple_flat_layout;
  ]
