(* Demand-driven queries, all answered by magic sets on Matcher plans:
   serve's [via: demand] path, a one-shot [Magic.answer] and a query
   session that earlier queries warmed must all equal the filtered
   unrewritten semi-naive fixpoint, on random programs × random
   queries. *)
open Relational
open Helpers
module Q = QCheck

let count = 100

let prop name arb f = QCheck_alcotest.to_alcotest (Q.Test.make ~count ~name arb f)

(* Random positive programs over edb g/2, e/1 with idb t, s, d (binary)
   and p (unary): left/right/doubly recursive closures, a diagonal
   selection, a projection chained through recursion. The instance may
   also hold stored facts of the idb predicates. *)
let rule_pool =
  [|
    "t(X, Y) :- g(X, Y).";
    "t(X, Y) :- t(X, Z), g(Z, Y).";
    "s(X, Y) :- g(X, Y).";
    "s(X, Y) :- g(X, Z), s(Z, Y).";
    "d(X, Y) :- t(X, Y).";
    "d(X, Z) :- d(X, Y), d(Y, Z).";
    "p(X) :- t(X, X).";
    "p(Y) :- g(X, Y), p(X).";
    "p(X) :- e(X).";
  |]

let arities = [ ("t", 2); ("s", 2); ("d", 2); ("p", 1) ]

(* One scenario: a sampled sub-program, a small random instance, and a
   query atom mixing constants (sometimes outside the graph), variables,
   and repeated variables. *)
let scenario_gen =
  Q.Gen.(
    let* mask = list_repeat (Array.length rule_pool) bool in
    let chosen =
      List.concat (List.mapi (fun i k -> if k then [ rule_pool.(i) ] else []) mask)
    in
    let* n = 1 -- 6 in
    let* edges = 0 -- 10 in
    let* seed = 0 -- 10_000 in
    let g = Graph_gen.random ~name:"g" ~seed n edges in
    let* ne = 0 -- n in
    (* stored facts of idb predicates: their answers must count too *)
    let* stored =
      list_size (0 -- 3)
        (let* pred, arity = oneofl arities in
         let* args = list_repeat arity (map Graph_gen.vertex (0 -- n)) in
         return (pred, Tuple.of_list args))
    in
    let inst =
      List.fold_left
        (fun acc (pred, tup) -> Instance.add_fact pred tup acc)
        (Instance.set "e"
           (Relation.of_rows (List.init ne (fun i -> [ Graph_gen.vertex i ])))
           g)
        stored
    in
    let p = prog (String.concat "\n" chosen) in
    let idb = Datalog.Ast.idb p in
    let queryable = List.filter (fun (q, _) -> List.mem q idb) arities in
    match queryable with
    | [] -> return (p, inst, None)
    | _ ->
        let* pred, arity = oneofl queryable in
        let* args =
          list_repeat arity
            (frequency
               [
                 (2, map (fun x -> Datalog.Ast.var x) (oneofl [ "X"; "Y" ]));
                 ( 1,
                   map
                     (fun i -> Datalog.Ast.cst (Graph_gen.vertex i))
                     (0 -- (n + 1)) );
               ])
        in
        return (p, inst, Some (Datalog.Ast.atom pred args)))

let scenario_arb =
  Q.make
    ~print:(fun (p, i, q) ->
      Printf.sprintf "program:\n%s\ninstance:\n%s\nquery: %s"
        (Datalog.Pretty.program_to_string p)
        (Instance.to_string i)
        (match q with
        | None -> "<none>"
        | Some q -> Datalog.Pretty.rule_to_string (Datalog.Ast.rule q [])))
    scenario_gen

(* Does a tuple of the query predicate's full relation satisfy the query
   atom — equal constants, consistent (possibly repeated) variables? *)
let matches_query (q : Datalog.Ast.atom) tup =
  let seen = Hashtbl.create 4 in
  let rec go i = function
    | [] -> true
    | Datalog.Ast.Cst c :: rest ->
        Value.equal c (Tuple.get tup i) && go (i + 1) rest
    | Datalog.Ast.Var x :: rest ->
        (match Hashtbl.find_opt seen x with
        | Some v0 -> Value.equal v0 (Tuple.get tup i)
        | None ->
            Hashtbl.add seen x (Tuple.get tup i);
            true)
        && go (i + 1) rest
  in
  go 0 q.Datalog.Ast.args

let oracle p inst (q : Datalog.Ast.atom) =
  Relation.filter (matches_query q)
    (Datalog.Seminaive.answer p inst q.Datalog.Ast.pred)

let bytes_of rel = Format.asprintf "%a" Relation.pp rel

(* serve's demand path ≡ Magic.answer ≡ filtered unrewritten
   semi-naive, byte for byte *)
let prop_three_engines_agree =
  prop "demand = magic = filtered semi-naive" scenario_arb (fun (p, i, q) ->
      Q.assume (q <> None);
      let q = Option.get q in
      let expected = bytes_of (oracle p i q) in
      let engine = Server.Engine.create p i in
      String.equal expected
        (bytes_of (Server.Engine.query engine ~via:Server.Engine.Demand q))
      && String.equal expected (bytes_of (Datalog.Magic.answer p i q)))

(* facts a session derived for an earlier query never change a later
   answer: asking the all-free query first, then the specific one, on
   one session gives the specific query's fresh answer *)
let prop_cache_transparent =
  prop "cached answers = fresh answers" scenario_arb (fun (p, i, q) ->
      Q.assume (q <> None);
      let q = Option.get q in
      let s = Datalog.Magic.session p i in
      let free_args =
        List.mapi
          (fun j _ -> Datalog.Ast.var (Printf.sprintf "F%d" j))
          q.Datalog.Ast.args
      in
      ignore
        (Datalog.Magic.ask s (Datalog.Ast.atom q.Datalog.Ast.pred free_args));
      String.equal
        (bytes_of (oracle p i q))
        (bytes_of (Datalog.Magic.ask s q)))

let suite = [ prop_three_engines_agree; prop_cache_transparent ]
