(* Property tests for the §6 subsystems: trees, chase, distributed. *)
open Relational
open Helpers
module Q = QCheck

let count = 60

let prop name arb f = QCheck_alcotest.to_alcotest (Q.Test.make ~count ~name arb f)

(* --- trees ------------------------------------------------------------- *)

let tree_arb =
  Q.make
    ~print:(fun t -> Trees.Tree.to_string t)
    Q.Gen.(
      let* seed = 0 -- 100_000 in
      let* depth = 1 -- 4 in
      let* width = 1 -- 3 in
      return
        (Trees.Tree.random ~seed ~depth ~width
           ~labels:[ "a"; "b"; "c"; "item" ]))

let prop_tree_print_parse =
  prop "tree print/parse roundtrip" tree_arb (fun t ->
      Trees.Tree.parse (Trees.Tree.to_string t) = t)

let prop_tree_encoding_consistent =
  prop "tree encoding: ids, labels, child counts" tree_arb (fun t ->
      let inst = Trees.Tree.to_instance t in
      let n = Trees.Tree.size t in
      Relation.cardinal (Instance.find "lab" inst) = n
      && Relation.cardinal (Instance.find "child" inst) = n - 1
      && Relation.cardinal (Instance.find "root" inst) = 1
      && List.length (Trees.Tree.node_ids t) = n)

let prop_tree_select_subset =
  prop "tree selection returns item nodes only" tree_arb (fun t ->
      let p = prog "sel(X) :- label_item(X)." in
      let selected = Trees.Tree.select p t "sel" in
      List.for_all (fun (_, l) -> l = "item") selected
      &&
      let items =
        List.filter (fun (_, l) -> l = "item") (Trees.Tree.node_ids t)
      in
      List.length selected = List.length items)

(* tree reachability (descendant query) agrees with a direct OCaml fold *)
let prop_tree_descendants =
  prop "descendant query = direct traversal" tree_arb (fun t ->
      let p =
        prog
          {|
          desc(Y) :- root(X), child(X, Y).
          desc(Y) :- desc(X), child(X, Y).
        |}
      in
      let selected = Trees.Tree.select p t "desc" in
      (* every node except the root is a descendant of the root *)
      List.length selected = Trees.Tree.size t - 1)

(* --- chase --------------------------------------------------------------- *)

let emp_arb =
  Q.make
    ~print:(fun n -> Printf.sprintf "%d employees" n)
    Q.Gen.(1 -- 10)

let onto =
  List.map Datalog.Parser.parse_rule
    [
      "worksIn(E, D) :- emp(E).";
      "hasManager(D, M) :- worksIn(E, D).";
      "worksIn(M, D) :- hasManager(D, M).";
      "emp(M) :- hasManager(D, M).";
    ]

let emp_inst n =
  Instance.of_list
    [ ("emp", List.init n (fun i -> [ Value.Sym (Printf.sprintf "e%d" i) ])) ]

let prop_chase_satisfies_tgds =
  prop "chased instance satisfies every tgd" emp_arb (fun n ->
      let { Ontology.Chase.instance; _ } = Ontology.Chase.chase onto (emp_inst n) in
      (* no tgd has an unsatisfied trigger: one more chase does nothing *)
      (Ontology.Chase.chase onto instance).steps = 0)

let prop_chase_preserves_input =
  prop "chase only adds facts" emp_arb (fun n ->
      Instance.subset (emp_inst n) (Ontology.Chase.chase onto (emp_inst n)).instance)

let prop_certain_answers_null_free =
  prop "certain answers are null-free and monotone" emp_arb (fun n ->
      let q =
        {
          Ontology.Chase.body = [ Datalog.Parser.parse_atom "emp(E)" ];
          answer = [ "E" ];
        }
      in
      let ca = Ontology.Chase.certain_answers onto (emp_inst n) q in
      Relation.for_all
        (fun t -> not (Tuple.exists Value.is_invented t))
        ca
      && Relation.cardinal ca >= n)

(* --- distributed ------------------------------------------------------------ *)

let dist_arb =
  Q.make
    ~print:(fun (k, n, _) -> Printf.sprintf "k=%d n=%d" k n)
    Q.Gen.(
      let* k = 1 -- 4 in
      let* n = 2 -- 10 in
      let* seed = 0 -- 1000 in
      return (k, n, seed))

let tc_net k n =
  let module N = Distributed.Netlog in
  let chain = Graph_gen.chain n in
  let edges = Relation.to_list (Instance.find "G" chain) in
  let parts = Array.make k [] in
  List.iteri (fun i e -> parts.(i mod k) <- e :: parts.(i mod k)) edges;
  let worker i = Printf.sprintf "w%d" i in
  {
    N.peers = "coord" :: List.init k worker;
    programs =
      ( "coord",
        [ { N.location = N.Local;
            rule = Datalog.Parser.parse_rule "reach(X,Y) :- reach(X,Z), reach(Z,Y)." } ] )
      :: List.init k (fun i ->
             ( worker i,
               [ { N.location = N.At_peer "coord";
                   rule = Datalog.Parser.parse_rule "reach(X,Y) :- edge(X,Y)." } ] ));
    stores =
      List.init k (fun i ->
          (worker i, Instance.set "edge" (Relation.of_list parts.(i)) Instance.empty));
  }

let prop_distributed_tc_correct =
  prop "distributed TC = local TC under random schedules" dist_arb
    (fun (k, n, seed) ->
      let module N = Distributed.Netlog in
      let net = tc_net k n in
      let out = N.run ~schedule:(N.Random_sched seed) net in
      let reach = Instance.find "reach" (N.store out "coord") in
      let expected =
        Graph_gen.reference_tc (Instance.find "G" (Graph_gen.chain n))
      in
      Relation.equal reach expected)

(* --- aggregation --------------------------------------------------------------- *)

let agg_arb =
  Q.make
    ~print:(fun (i, _) -> Instance.to_string i)
    Q.Gen.(
      let* n = 1 -- 12 in
      let* seed = 0 -- 1000 in
      let rng = Random.State.make [| seed |] in
      let rows =
        List.init n (fun i ->
            [
              Value.Sym (Printf.sprintf "c%d" (Random.State.int rng 4));
              Value.Int i;
              Value.Int (1 + Random.State.int rng 9);
            ])
      in
      return (Instance.of_list [ ("fact", rows) ], rows))

let prop_agg_count_sum_consistent =
  prop "count and sum agree with a direct fold" agg_arb (fun (inst, rows) ->
      let body =
        (Datalog.Parser.parse_rule "agg__p :- fact(C, I, N).").Datalog.Ast.body
      in
      let layers f pred =
        [ { Datalog.Aggregate.rules = [];
            aggregates =
              [ { Datalog.Aggregate.pred; group_by = [ "C" ]; func = f; body } ] } ]
      in
      let counts = Datalog.Aggregate.answer (layers Datalog.Aggregate.Count "cnt") inst "cnt" in
      let sums =
        Datalog.Aggregate.answer (layers (Datalog.Aggregate.Sum "N") "sm") inst "sm"
      in
      let expect f0 merge =
        List.fold_left
          (fun acc row ->
            match row with
            | [ c; _; n ] ->
                let cur = try List.assoc c acc with Not_found -> f0 in
                (c, merge cur n) :: List.remove_assoc c acc
            | _ -> acc)
          [] rows
      in
      let expected_counts = expect 0 (fun acc _ -> acc + 1) in
      let expected_sums =
        expect 0 (fun acc n -> match n with Value.Int k -> acc + k | _ -> acc)
      in
      List.for_all
        (fun (c, k) -> Relation.mem (t [ c; Value.Int k ]) counts)
        expected_counts
      && List.for_all
           (fun (c, k) -> Relation.mem (t [ c; Value.Int k ]) sums)
           expected_sums)

let suite =
  [
    prop_tree_print_parse;
    prop_tree_encoding_consistent;
    prop_tree_select_subset;
    prop_tree_descendants;
    prop_chase_satisfies_tgds;
    prop_chase_preserves_input;
    prop_certain_answers_null_free;
    prop_distributed_tc_correct;
    prop_agg_count_sum_consistent;
  ]
