(* The matcher: index-backed rule instantiation — the shared workhorse. *)
open Relational
open Helpers
module M = Datalog.Matcher
module Ast = Datalog.Ast

let inst = facts "G(a,b). G(b,c). G(a,c). P(a). P(b)."
let db () = M.Db.of_instance inst

let rule src = Datalog.Parser.parse_rule src
let run ?dom ?neg_db src = M.run ?dom ?neg_db (M.prepare (rule src)) (db ())

(* the head facts of a delta pass of [plan] over [d]'s facts of [p],
   sorted *)
let firings ?trace plan base p d =
  let got = ref [] in
  ignore
    (M.iter_firings
       ~delta:(p, M.Db.memset d p)
       plan
       (M.Db.of_instance ?trace base)
       (fun ~pos:_ _ ids -> got := Tuple.of_ids ids :: !got)
      : int);
  List.sort Tuple.compare !got

let test_db_lookup () =
  let d = db () in
  Alcotest.(check int) "all tuples" 3 (List.length (M.Db.lookup d "G" []));
  Alcotest.(check int) "bound first col" 2
    (List.length (M.Db.lookup d "G" [ (0, v "a") ]));
  Alcotest.(check int) "bound both" 1
    (List.length (M.Db.lookup d "G" [ (0, v "a"); (1, v "c") ]));
  Alcotest.(check int) "missing pred" 0 (List.length (M.Db.lookup d "Z" []));
  Alcotest.(check bool) "mem" true (M.Db.mem d "P" (t [ v "a" ]))

let test_join_count () =
  (* G(X,Y), G(Y,Z): paths of length 2: a-b-c only *)
  let substs = run "p(X, Z) :- G(X, Y), G(Y, Z)." in
  Alcotest.(check int) "one 2-path" 1 (List.length substs)

let test_repeated_variable () =
  let substs = run "p(X) :- G(X, X)." in
  Alcotest.(check int) "no self loops" 0 (List.length substs);
  let inst2 = facts "G(a,a). G(a,b)." in
  let substs2 =
    M.run (M.prepare (rule "p(X) :- G(X, X).")) (M.Db.of_instance inst2)
  in
  Alcotest.(check int) "one self loop" 1 (List.length substs2)

let test_constants_in_atoms () =
  let substs = run "p(Y) :- G(a, Y)." in
  Alcotest.(check int) "two successors of a" 2 (List.length substs)

let test_negative_filter () =
  let substs = run "p(X, Y) :- G(X, Y), !P(Y)." in
  (* G pairs whose target is not in P = (b,c) and (a,c) *)
  Alcotest.(check int) "two" 2 (List.length substs)

let test_equality_filters () =
  let substs = run "p(X, Y) :- G(X, Y), X != Y." in
  Alcotest.(check int) "all edges distinct-ended" 3 (List.length substs);
  let substs2 = run "p(X) :- P(X), X = a." in
  Alcotest.(check int) "pinned by equality" 1 (List.length substs2)

let test_domain_variable () =
  (* Y occurs only in a negative literal: ranges over the domain *)
  let dom = List.map v [ "a"; "b"; "c" ] in
  let substs = run ~dom "p(Y) :- P(a), !P(Y)." in
  (* Y in {a,b,c} with P(Y) false: only c *)
  Alcotest.(check int) "one" 1 (List.length substs);
  Alcotest.(check bool) "it is c" true
    (List.for_all (fun s -> List.assoc "Y" s = v "c") substs)

let test_domain_requires_dom () =
  match run "p(Y) :- P(a), !P(Y)." with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument without ~dom"

let test_delta_restriction () =
  let path = M.prepare (rule "p(X, Y, Z) :- G(X, Y), G(Y, Z).") in
  let got = firings path inst "G" (delta_db "G" [ t [ v "a"; v "b" ] ]) in
  (* occurrences: first G in delta: (a,b) ∘ G(b,·) = (a,b,c);
     second G in delta: G(·,a)=none. => 1 *)
  Alcotest.(check (list tuple)) "delta join" [ t [ v "a"; v "b"; v "c" ] ] got;
  let no_delta = firings path inst "P" (delta_db "P" [ t [ v "a" ] ]) in
  Alcotest.(check int) "delta on absent pred" 0 (List.length no_delta);
  (* H comes second in this rule's greedy order: a pass on H starts from
     the delta when it has fewer tuples than the first step's G bucket
     (3 here), and from G otherwise. Either way the answer is the full
     evaluation restricted to matches whose H tuple is in the delta. *)
  let plan = M.prepare (rule "p(X, Z, Y) :- G(X, Z), H(Z, Y).") in
  let hs = [ ("b", "x"); ("c", "y"); ("c", "z"); ("b", "w") ] in
  let base = Instance.set "H" (pairs hs) inst in
  let full = firings plan base "H" (M.Db.of_instance base) in
  let pass name rows ~delta_first =
    let trace = Observe.Trace.make () in
    let delta = pairs rows in
    let got =
      firings ~trace plan base "H" (delta_db "H" (Relation.elements delta))
    in
    let expected =
      List.filter
        (fun x -> Relation.mem (t [ Tuple.get x 1; Tuple.get x 2 ]) delta)
        full
    in
    Alcotest.(check (list tuple)) (name ^ ": filtered full evaluation")
      expected got;
    Alcotest.(check int) (name ^ ": matcher.delta_first") delta_first
      (Observe.Trace.counter trace "matcher.delta_first")
  in
  pass "small delta" [ ("c", "y") ] ~delta_first:1;
  pass "large delta" hs ~delta_first:0

let test_neg_db_gl_primitive () =
  (* negation checked against a different instance *)
  let neg_db = M.Db.of_instance (facts "P(a). P(b). P(c).") in
  let substs = run ~neg_db "p(X, Y) :- G(X, Y), !P(Y)." in
  Alcotest.(check int) "all targets blocked" 0 (List.length substs);
  let neg_db2 = M.Db.of_instance Instance.empty in
  let substs2 = run ~neg_db:neg_db2 "p(X, Y) :- G(X, Y), !P(Y)." in
  Alcotest.(check int) "nothing blocked" 3 (List.length substs2)

let test_forall () =
  (* X such that every G-successor of X is in P *)
  let dom = List.map v [ "a"; "b"; "c" ] in
  let substs =
    run ~dom "ans(X) :- forall Y : P(X), !G(X, Y)."
  in
  (* X ∈ P with no successors at all: b has successor c... G(b,c) exists so
     b fails; a has successors so fails. -> none *)
  Alcotest.(check int) "none" 0 (List.length substs);
  let substs2 =
    M.run ~dom:(List.map v [ "a"; "b" ])
      (M.prepare (rule "ans(X) :- forall Y : P(X), !G(Y, X)."))
      (M.Db.of_instance (facts "P(a). P(b). G(b,b)."))
  in
  (* X with no incoming edges from anywhere: a *)
  Alcotest.(check int) "only a" 1 (List.length substs2)

let test_dedup () =
  (* two derivations of the same binding produce one substitution *)
  let substs = run "p(X) :- G(X, Y)." in
  (* X=a twice (via b and c), X=b once → dedup on (X,Y) pairs: 3; but the
     head var set is X,Y both in rule vars so no collapse... use explicit
     projection-like rule *)
  Alcotest.(check int) "three edges" 3 (List.length substs)

let test_instantiate_heads () =
  let r = rule "p(X), !q(X) :- P(X)." in
  let bottom, facts = M.instantiate_heads [ ("X", v "a") ] r.Ast.head in
  Alcotest.(check bool) "no bottom" false bottom;
  Alcotest.(check int) "two facts" 2 (List.length facts);
  let r2 = rule "bottom :- P(X)." in
  let bottom2, facts2 = M.instantiate_heads [ ("X", v "a") ] r2.Ast.head in
  Alcotest.(check bool) "bottom" true bottom2;
  Alcotest.(check int) "no facts" 0 (List.length facts2)

let test_remove_purges_pending () =
  (* regression: a fact bulk-absorbed and then removed must not come back
     through the predicate's rows, which a removal leaves stale, when a
     later absorb and a publish follow *)
  let d = M.Db.of_instance (facts "G(a,b).") in
  M.Db.absorb_new d (delta_db "G" [ t [ v "x"; v "y" ] ]);
  Alcotest.(check bool) "pending fact visible" true
    (M.Db.mem d "G" (t [ v "x"; v "y" ]));
  Alcotest.(check bool) "remove reports present" true
    (M.Db.remove d "G" (t [ v "x"; v "y" ]));
  (* a stale row would come back at the publish below *)
  M.Db.absorb_new d (delta_db "G" [ t [ v "p"; v "q" ] ]);
  Alcotest.(check bool) "not resurrected (mem)" false
    (M.Db.mem d "G" (t [ v "x"; v "y" ]));
  Alcotest.(check int) "not resurrected (relation)" 2
    (Relation.cardinal (M.Db.relation d "G"));
  Alcotest.(check int) "not resurrected (lookup)" 0
    (List.length (M.Db.lookup d "G" [ (0, v "x") ]));
  Alcotest.(check bool) "remove of absent fact" false
    (M.Db.remove d "G" (t [ v "x"; v "y" ]))

let test_remove_then_absorb_indexed () =
  (* same resurrection check with memoized indexes and membership sets
     already built before the pending fact arrives *)
  let d = db () in
  ignore (M.Db.lookup d "G" [ (0, v "a") ]);
  Alcotest.(check bool) "warm mem" true (M.Db.mem d "G" (t [ v "a"; v "b" ]));
  M.Db.absorb_new d (delta_db "G" [ t [ v "c"; v "d" ] ]);
  Alcotest.(check int) "index sees pending" 1
    (List.length (M.Db.lookup d "G" [ (0, v "c") ]));
  Alcotest.(check bool) "remove pending" true
    (M.Db.remove d "G" (t [ v "c"; v "d" ]));
  M.Db.absorb_new d (delta_db "G" [ t [ v "c"; v "e" ] ]);
  Alcotest.(check int) "index purged" 0
    (List.length (M.Db.lookup d "G" [ (1, v "d") ]));
  Alcotest.(check bool) "membership purged" false
    (M.Db.mem d "G" (t [ v "c"; v "d" ]));
  Alcotest.(check int) "relation holds original 3 + 1 absorbed" 4
    (Relation.cardinal (M.Db.relation d "G"))

let test_sharing () =
  (* a sharing view reads G from [d], facts absorbed into [d] included,
     and an index it builds on G stays in [d], whose later writes
     maintain it; P comes from the view's own base *)
  let trace = Observe.Trace.make () in
  let d = M.Db.of_instance ~trace inst in
  M.Db.absorb_new d (delta_db "G" [ t [ v "c"; v "d" ] ]);
  let q = M.Db.sharing d [ "G" ] (facts "G(z, z). P(z).") in
  Alcotest.(check int) "shared relation, pending fact included" 4
    (Relation.cardinal (M.Db.relation q "G"));
  Alcotest.(check int) "index built through the view" 1
    (List.length (M.Db.lookup q "G" [ (1, v "d") ]));
  Alcotest.(check int) "unshared predicate from the base" 1
    (Relation.cardinal (M.Db.relation q "P"));
  Alcotest.(check bool) "insert into the shared db" true
    (M.Db.insert d "G" (t [ v "e"; v "d" ]));
  Alcotest.(check int) "the view's index is the db's, maintained" 2
    (List.length (M.Db.lookup d "G" [ (1, v "d") ]));
  Alcotest.(check int) "built once" 1
    (Observe.Trace.counter trace "db.index_builds")

(* --- index maintenance -------------------------------------------- *)

module Q = QCheck

let syms = [| "a"; "b"; "c" |]
let arities = [ ("U", 1); ("B", 2); ("T", 3) ]

(* every column subset of [0 .. ar - 1], ascending: [] and the full key
   included *)
let subsets ar =
  List.fold_left
    (fun acc c -> acc @ List.map (fun s -> s @ [ c ]) acc)
    [ [] ] (List.init ar Fun.id)

(* every tuple of arity [ar] over [syms] *)
let all_tuples ar =
  List.fold_left
    (fun acc _ ->
      List.concat_map
        (fun l -> List.map (fun x -> v x :: l) (Array.to_list syms))
        acc)
    [ [] ] (List.init ar Fun.id)
  |> List.map t

let tuple_gen ar = Q.Gen.oneofl (all_tuples ar)
let rows xs = List.map (fun x -> Array.to_list (Tuple.values x)) xs

type op =
  | Insert of string * Tuple.t
  | Remove of string * Tuple.t
  | Replace of string * Tuple.t * Tuple.t
  | Scan of string
  | Absorb_new of string * Tuple.t list

let op_gen =
  Q.Gen.(
    let* p, ar = oneofl arities in
    let tup = tuple_gen ar in
    frequency
      [
        (3, map (fun x -> Insert (p, x)) tup);
        (3, map (fun x -> Remove (p, x)) tup);
        (2, map2 (fun x y -> Replace (p, x, y)) tup tup);
        (2, return (Scan p));
        (2, map (fun xs -> Absorb_new (p, xs)) (list_size (0 -- 4) tup));
      ])

let show_op op =
  let name, p, xs =
    match op with
    | Insert (p, x) -> ("insert", p, [ x ])
    | Remove (p, x) -> ("remove", p, [ x ])
    | Replace (p, x, y) -> ("replace", p, [ x; y ])
    | Scan p -> ("scan", p, [])
    | Absorb_new (p, xs) -> ("absorb_new", p, xs)
  in
  String.concat " " (name :: p :: List.map Tuple.to_string xs)

(* Db.lookup on [p] for every column subset and every key over the
   domain, against a filter over the relation *)
let lookups_agree db (p, ar) =
  let probes =
    List.concat_map
      (fun cols ->
        List.sort_uniq compare
          (List.map
             (fun x -> List.map (fun c -> (c, Tuple.get x c)) cols)
             (all_tuples ar))
        |> List.map (fun key ->
               (key, List.sort Tuple.compare (M.Db.lookup db p key))))
      (subsets ar)
  in
  let elements = Relation.elements (M.Db.relation db p) in
  List.for_all
    (fun (key, got) ->
      got
      = List.filter
          (fun x ->
            List.for_all (fun (c, w) -> Value.equal (Tuple.get x c) w) key)
          elements)
    probes

let prop_index_maintenance =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:100
       ~name:"Db.lookup = filter over the relation after every write"
       (Q.make
          ~print:(fun (init, ops) ->
            String.concat "\n"
              (Instance.to_string init :: List.map show_op ops))
          Q.Gen.(
            pair
              (map Instance.of_list
                 (flatten_l
                    (List.map
                       (fun (p, ar) ->
                         map (fun xs -> (p, rows xs))
                           (list_size (0 -- 8) (tuple_gen ar)))
                       arities)))
              (list_size (1 -- 8) op_gen)))
       (fun (init, ops) ->
         let db = M.Db.of_instance init in
         (* warm every index (and the membership sets) first *)
         List.for_all (lookups_agree db) arities
         && List.for_all
              (fun op ->
                (match op with
                | Insert (p, x) -> ignore (M.Db.insert db p x : bool)
                | Remove (p, x) -> ignore (M.Db.remove db p x : bool)
                | Replace (p, x, y) ->
                    (* the insert follows the removal with no read
                       between, while the set's order is stale *)
                    ignore (M.Db.remove db p x : bool);
                    ignore (M.Db.insert db p y : bool)
                | Scan p ->
                    (* a keyless lookup reads the set in its order:
                       each fact once *)
                    let all = M.Db.lookup db p [] in
                    if
                      List.sort Tuple.compare all
                      <> List.sort_uniq Tuple.compare all
                    then failwith "a keyless lookup repeats a fact"
                | Absorb_new (p, xs) ->
                    (* its contract: fresh *)
                    let cur = M.Db.relation db p in
                    M.Db.absorb_new db
                      (delta_db p
                         (List.filter (fun x -> not (Relation.mem x cur)) xs)));
                List.for_all (lookups_agree db) arities)
              ops))

(* --- published relations stay persistent --------------------------- *)

(* Plans whose steps index U, B and T on several column sets: prewarming
   them builds those indexes while the relations are still empty, so
   every fact absorbed afterwards is filed into a maintained index. *)
let warm_rules =
  List.map
    (fun src -> M.prepare (rule src))
    [
      "H(X) :- U(X), B(X, Y).";
      "H(X) :- U(Y), B(X, Y).";
      "H(X) :- B(X, Y), T(X, Y, Z).";
      "H(Z) :- U(X), T(X, Y, Z).";
    ]

(* [model] maps each predicate to its facts, sorted *)
let model_agrees db model (p, ar) =
  let want = Hashtbl.find model p in
  List.for_all (fun x -> M.Db.mem db p x = List.mem x want) (all_tuples ar)
  && List.for_all
       (fun cols ->
         List.for_all
           (fun x ->
             let key = List.map (fun c -> (c, Tuple.get x c)) cols in
             List.sort Tuple.compare (M.Db.lookup db p key)
             = List.filter
                 (fun y ->
                   List.for_all
                     (fun (c, w) -> Value.equal (Tuple.get y c) w)
                     key)
                 want)
           (all_tuples ar))
       (subsets ar)
  && Relation.elements (Instance.find p (M.Db.instance db)) = want

let prop_published_persistent =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:100
       ~name:"a published instance survives every later write"
       (Q.make
          ~print:(fun (init, ops) ->
            String.concat "\n"
              (List.map
                 (fun (p, xs) ->
                   show_op (Absorb_new (p, List.concat xs)))
                 init
              @ List.map show_op ops))
          Q.Gen.(
            pair
              (flatten_l
                 (List.map
                    (fun (p, ar) ->
                      map
                        (fun xs -> (p, xs))
                        (list_size (1 -- 2)
                           (list_size (0 -- 8) (tuple_gen ar))))
                    arities))
              (list_size (1 -- 8) op_gen)))
       (fun (init, ops) ->
         let db = M.Db.of_instance Instance.empty in
         List.iter
           (fun (p, _) -> ignore (M.Db.memset db p : M.Db.memset))
           arities;
         List.iter
           (fun plan -> M.prewarm ~delta_preds:[ "U"; "B"; "T" ] plan db)
           warm_rules;
         let model = Hashtbl.create 3 in
         List.iter (fun (p, _) -> Hashtbl.replace model p []) arities;
         (* [absorb_new]'s contract: fresh *)
         let fresh p xs =
           let cur = Hashtbl.find model p in
           let xs =
             List.sort_uniq Tuple.compare
               (List.filter (fun x -> not (List.mem x cur)) xs)
           in
           Hashtbl.replace model p (List.sort Tuple.compare (xs @ cur));
           xs
         in
         let remove p x =
           if M.Db.remove db p x then
             Hashtbl.replace model p
               (List.filter
                  (fun y -> not (Tuple.equal x y))
                  (Hashtbl.find model p))
         in
         List.iter
           (fun (p, batches) ->
             List.iter
               (fun xs -> M.Db.absorb_new db (delta_db p (fresh p xs)))
               batches)
           init;
         let s = M.Db.instance db in
         let kept =
           List.map
             (fun (p, ar) ->
               let rel = Instance.find p s in
               ( p,
                 rel,
                 Relation.elements rel,
                 List.map (fun x -> Relation.mem x rel) (all_tuples ar) ))
             arities
         in
         let unchanged () =
           List.for_all
             (fun (p, rel, elems, mems) ->
               Instance.find p s == rel
               && Relation.elements rel = elems
               && Relation.cardinal rel = List.length elems
               && List.map
                    (fun x -> Relation.mem x rel)
                    (all_tuples (List.assoc p arities))
                  = mems)
             kept
         in
         List.for_all
           (fun (p, _, elems, _) -> elems = Hashtbl.find model p)
           kept
         && List.for_all
              (fun op ->
                (match op with
                | Insert (p, x) ->
                    if M.Db.insert db p x then ignore (fresh p [ x ])
                | Remove (p, x) -> remove p x
                | Replace (p, x, y) ->
                    remove p x;
                    if M.Db.insert db p y then ignore (fresh p [ y ])
                | Scan p ->
                    if
                      List.sort Tuple.compare (M.Db.lookup db p [])
                      <> Hashtbl.find model p
                    then failwith "a keyless lookup disagrees with the model"
                | Absorb_new (p, xs) ->
                    M.Db.absorb_new db (delta_db p (fresh p xs)));
                unchanged () && List.for_all (model_agrees db model) arities)
              ops))

(* A fully bound positive atom that is not the first step is a
   membership test: same firings as a nested-loop oracle and the naive
   engine, no index for it (nor for the keyless first step, which walks
   [A]'s set), and it reads the maintained membership set,
   so a removed fact stops the rule firing. *)
let test_full_key_step () =
  let src = "Q(X, Z) :- A(X, Y), B(Y, Z), C(X, Z)." in
  let inst =
    facts
      "A(a, b). A(a, c). A(b, c). B(b, c). B(c, a). B(c, d). C(a, c). C(a, a). \
       C(b, d). C(b, b). C(d, d)."
  in
  let oracle inst =
    let rel p = Relation.elements (Instance.find p inst) in
    List.sort_uniq compare
      (List.concat_map
         (fun a ->
           List.concat_map
             (fun b ->
               List.filter_map
                 (fun c ->
                   let g x k = Tuple.get x k in
                   if Value.equal (g a 1) (g b 0) && Value.equal (g c 0) (g a 0)
                      && Value.equal (g c 1) (g b 1)
                   then Some [ ("X", g a 0); ("Y", g a 1); ("Z", g b 1) ]
                   else None)
                 (rel "C"))
             (rel "B"))
         (rel "A"))
  in
  let sink, recorded = Observe.Trace.memory_sink () in
  let trace = Observe.Trace.make ~sinks:[ sink ] () in
  let db = M.Db.of_instance ~trace inst in
  let plan = M.prepare (rule src) in
  let fired () = List.sort compare (M.run plan db) in
  let want = oracle inst in
  Alcotest.(check int) "three firings" 3 (List.length want);
  Alcotest.(check bool) "firings = nested-loop oracle" true (fired () = want);
  let naive =
    Datalog.Naive.answer (Datalog.Parser.parse_program src) inst "Q"
    |> Relation.elements
    |> List.map (fun x -> [ ("X", Tuple.get x 0); ("Z", Tuple.get x 1) ])
  in
  Alcotest.(check bool) "firings = naive engine" true
    (naive = List.sort_uniq compare (List.map (List.remove_assoc "Y") want));
  let built =
    List.filter_map
      (function
        | Observe.Trace.Closed (sp, _, _) when sp.Observe.Trace.kind = "index"
          ->
            Some sp.Observe.Trace.name
        | _ -> None)
      (recorded ())
  in
  Alcotest.(check (list string)) "no index on C" [ "B[0]" ] built;
  Alcotest.(check int) "db.index_builds" 1
    (Observe.Trace.counter trace "db.index_builds");
  Alcotest.(check bool) "membership probes counted" true
    (Observe.Trace.counter trace "matcher.member_probes" > 0);
  let gone = t [ v "a"; v "c" ] in
  Alcotest.(check bool) "remove C(a, c)" true (M.Db.remove db "C" gone);
  let after = fired () in
  Alcotest.(check bool) "no longer fires" true
    (after = oracle (Instance.remove_fact "C" gone inst));
  Alcotest.(check int) "two firings left" 2 (List.length after)

(* Minor words per call of [f], over [n] calls. *)
let words_per n f =
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* A membership probe reads one flat set: on a relation built with
   [Relation.add], [mem] and [mem_ids] allocate nothing, and a
   [Db.insert] of a fact already present allocates (next to) nothing. *)
let test_probes_allocate_nothing () =
  let tuples = List.init 1000 (fun k -> t [ Value.Int k; Value.Int (k * 7) ]) in
  let r = List.fold_left (fun r x -> Relation.add x r) Relation.empty tuples in
  let hit = List.nth tuples 500 and miss = t [ Value.Int 1; Value.Int 2 ] in
  let hit_ids = Tuple.ids hit and miss_ids = Tuple.ids miss in
  let n = 100_000 in
  let mem =
    words_per n (fun () ->
        ignore (Sys.opaque_identity (Relation.mem hit r));
        ignore (Sys.opaque_identity (Relation.mem miss r)))
  in
  let mem_ids =
    words_per n (fun () ->
        ignore (Sys.opaque_identity (Relation.mem_ids hit_ids r));
        ignore (Sys.opaque_identity (Relation.mem_ids miss_ids r)))
  in
  let d = M.Db.of_instance (Instance.set "R" r Instance.empty) in
  let insert =
    words_per n (fun () ->
        ignore (Sys.opaque_identity (M.Db.insert d "R" hit)))
  in
  Alcotest.(check (float 0.01)) "Relation.mem words per probe" 0. (mem /. 2.);
  Alcotest.(check (float 0.01)) "Relation.mem_ids words per probe" 0.
    (mem_ids /. 2.);
  Alcotest.(check bool)
    (Printf.sprintf "Db.insert of a present fact: %.2f words <= 2" insert)
    true (insert <= 2.)

(* An index bucket deletes in place: removing a tuple from a
   1000-tuple bucket and adding it back (on top) allocates (next to)
   nothing, where a list bucket copied on every removal. *)
let test_bucket_writes_allocate_nothing () =
  let tuples = List.init 1000 (fun k -> t [ Value.Int 0; Value.Int k ]) in
  let ix =
    Relation.Index.of_set [| 0 |] (Relation.set (Relation.of_list tuples))
  in
  let arr = Array.of_list tuples in
  let n = 10_000 in
  let k = ref 0 in
  let words =
    words_per n (fun () ->
        let x = arr.(!k * 7 mod 1000) in
        incr k;
        Relation.Index.remove ix x;
        Relation.Index.add ix x)
  in
  Alcotest.(check int) "bucket size" 1000
    (Relation.Index.size (Relation.Index.lookup ix [| 0 |] arr.(0)));
  Alcotest.(check bool)
    (Printf.sprintf "Index.remove/add: %.2f words per call <= 4" (words /. 2.))
    true
    (words /. 2. <= 4.)

(* A bucket whose tuples are removed lets go of its slots: after 990 of
   1000 removals it holds about what ten tuples need, and reads see the
   ten that are left, newest first. *)
let test_bucket_shrinks () =
  let tuples = List.init 1000 (fun k -> t [ Value.Int 0; Value.Int k ]) in
  let ix =
    Relation.Index.of_set [| 0 |] (Relation.set (Relation.of_list tuples))
  in
  let bucket () = Relation.Index.lookup ix [| 0 |] (List.hd tuples) in
  let full = Obj.reachable_words (Obj.repr (bucket ())) in
  List.iteri
    (fun k x -> if k mod 100 <> 7 then Relation.Index.remove ix x)
    tuples;
  let b = bucket () in
  Alcotest.(check int) "ten left" 10 (Relation.Index.size b);
  Alcotest.(check bool) "newest first" true
    (List.equal ( == ) (Relation.Index.to_list b)
       (List.rev (List.filteri (fun k _ -> k mod 100 = 7) tuples)));
  let left = Obj.reachable_words (Obj.repr b) in
  Alcotest.(check bool)
    (Printf.sprintf "bucket words %d -> %d" full left)
    true
    (left < full / 20)

(* A tuple is one block: [Tuple.of_ids] on a k-vector allocates k + 2
   words (the header, k ids, the hash) whatever k, and a set probe by
   tuple, hit or miss, allocates nothing. *)
let test_tuple_one_block () =
  List.iter
    (fun k ->
      let v = Array.init k (fun i -> Value.Intern.id (Value.Int i)) in
      let words =
        words_per 10_000 (fun () ->
            ignore (Sys.opaque_identity (Tuple.of_ids v)))
      in
      Alcotest.(check (float 0.01))
        (Printf.sprintf "Tuple.of_ids words at arity %d" k)
        (float_of_int (k + 2))
        words)
    [ 0; 1; 2; 3; 4; 7 ];
  let s = Tuple.Set.create 16 in
  let tuples = List.init 1000 (fun k -> t [ Value.Int k; Value.Int (k * 7) ]) in
  List.iter (fun x -> ignore (Tuple.Set.add s x)) tuples;
  let hit = t [ Value.Int 500; Value.Int 3500 ]
  and miss = t [ Value.Int 1; Value.Int 2 ] in
  let words =
    words_per 100_000 (fun () ->
        ignore (Sys.opaque_identity (Tuple.Set.mem_tuple s hit));
        ignore (Sys.opaque_identity (Tuple.Set.mem_tuple s miss)))
  in
  Alcotest.(check bool) "probe by tuple finds a copy" true
    (Tuple.Set.mem_tuple s hit && not (Tuple.Set.mem_tuple s miss));
  Alcotest.(check (float 0.01)) "Tuple.Set.mem_tuple words per probe" 0.
    (words /. 2.)

let suite =
  [
    Alcotest.test_case "Db lookup and indexes" `Quick test_db_lookup;
    Alcotest.test_case "join" `Quick test_join_count;
    Alcotest.test_case "repeated variables" `Quick test_repeated_variable;
    Alcotest.test_case "constants in atoms" `Quick test_constants_in_atoms;
    Alcotest.test_case "negative filters" `Quick test_negative_filter;
    Alcotest.test_case "(in)equality filters" `Quick test_equality_filters;
    Alcotest.test_case "domain-bound variables" `Quick test_domain_variable;
    Alcotest.test_case "domain variables need ~dom" `Quick
      test_domain_requires_dom;
    Alcotest.test_case "delta restriction" `Quick test_delta_restriction;
    Alcotest.test_case "neg_db (GL primitive)" `Quick test_neg_db_gl_primitive;
    Alcotest.test_case "forall bodies" `Quick test_forall;
    Alcotest.test_case "substitution dedup" `Quick test_dedup;
    Alcotest.test_case "head instantiation" `Quick test_instantiate_heads;
    Alcotest.test_case "remove purges the pending buffer" `Quick
      test_remove_purges_pending;
    Alcotest.test_case "remove-then-absorb with warm indexes" `Quick
      test_remove_then_absorb_indexed;
    Alcotest.test_case "sharing view aliases relation and indexes" `Quick
      test_sharing;
    prop_index_maintenance;
    prop_published_persistent;
    Alcotest.test_case "fully bound step reads the membership set" `Quick
      test_full_key_step;
    Alcotest.test_case "membership probes allocate nothing" `Quick
      test_probes_allocate_nothing;
    Alcotest.test_case "index bucket writes allocate nothing" `Quick
      test_bucket_writes_allocate_nothing;
    Alcotest.test_case "an emptied index bucket shrinks" `Quick
      test_bucket_shrinks;
    Alcotest.test_case "a tuple is one block; probes by tuple allocate nothing"
      `Quick test_tuple_one_block;
  ]
