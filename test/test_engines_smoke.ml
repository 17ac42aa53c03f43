(* Smoke tests exercising every engine on the paper's own examples. These
   run first; the deeper per-module suites live in their own files. *)
open Relational
open Helpers

let tc_edges = pairs [ ("a", "b"); ("b", "c") ]
let tc_input = Instance.of_list [] |> Instance.set "G" tc_edges

let expected_tc =
  pairs [ ("a", "b"); ("b", "c"); ("a", "c") ]

let test_naive_tc () =
  check_rel "naive TC" expected_tc (Datalog.Naive.answer tc_program tc_input "T")

let test_seminaive_tc () =
  check_rel "semi-naive TC" expected_tc
    (Datalog.Seminaive.answer tc_program tc_input "T")

(* §3.2: complement of transitive closure, stratified. *)
let comp_tc_program =
  prog
    {|
    T(X, Y) :- G(X, Y).
    T(X, Y) :- G(X, Z), T(Z, Y).
    CT(X, Y) :- !T(X, Y).
  |}

let test_stratified_complement () =
  (* adom = {a, b, c}; CT = adom^2 \ T *)
  let all =
    pairs
      [ ("a","a");("a","b");("a","c");("b","a");("b","b");("b","c");
        ("c","a");("c","b");("c","c") ]
  in
  let expected = Relation.diff all expected_tc in
  check_rel "stratified CT" expected
    (Datalog.Stratified.answer comp_tc_program tc_input "CT")

let test_unstratifiable_rejected () =
  let p = prog {| win(X) :- moves(X, Y), !win(Y). |} in
  Alcotest.check_raises "win program is not stratifiable"
    (Datalog.Stratified.Not_stratifiable
       "not stratifiable: win depends negatively on win inside a recursive \
        component")
    (fun () -> ignore (Datalog.Stratified.eval p (Graph_gen.paper_game ())))

(* Example 3.2: the win game under well-founded semantics. *)
let win_program = prog {| win(X) :- moves(X, Y), !win(Y). |}

let test_wellfounded_win () =
  let res = Datalog.Wellfounded.eval win_program (Graph_gen.paper_game ()) in
  let tr p = Datalog.Wellfounded.truth_of res "win" (t [ v p ]) in
  Alcotest.(check bool) "not total" false (Datalog.Wellfounded.is_total res);
  List.iter
    (fun (s, expected) ->
      let got = tr s in
      if got <> expected then
        Alcotest.failf "win(%s): wrong truth value" s)
    [
      ("d", Datalog.Wellfounded.True);
      ("f", Datalog.Wellfounded.True);
      ("e", Datalog.Wellfounded.False);
      ("g", Datalog.Wellfounded.False);
      ("a", Datalog.Wellfounded.Unknown);
      ("b", Datalog.Wellfounded.Unknown);
      ("c", Datalog.Wellfounded.Unknown);
    ]

(* Example 4.1: closer. *)
let closer_program =
  prog
    {|
    T(X, Y) :- G(X, Y).
    T(X, Y) :- T(X, Z), G(Z, Y).
    closer(X, Y, X2, Y2) :- T(X, Y), !T(X2, Y2).
  |}

let test_inflationary_closer () =
  (* chain a -> b -> c: d(a,b) = d(b,c) = 1, d(a,c) = 2; all other pairs
     infinite. Working the stage semantics through (closer(x,y,x',y') is
     derived at stage n+1 iff d(x,y) <= n < d(x',y')), the program derives
     closer(x,y,x',y') iff d(x,y) is finite and d(x,y) < d(x',y') — the
     strict comparison matching the paper's own reasoning ("the distance
     between x and y is less than that between x' and y'"), though its
     display equation writes <=. *)
  let res = Datalog.Inflationary.eval closer_program tc_input in
  let closer = Instance.find "closer" res.Datalog.Inflationary.instance in
  let d = function
    | "a", "b" | "b", "c" -> 1
    | "a", "c" -> 2
    | _ -> max_int
  in
  let names = [ "a"; "b"; "c" ] in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          List.iter
            (fun x' ->
              List.iter
                (fun y' ->
                  let expected =
                    d (x, y) < d (x', y') && d (x, y) <> max_int
                  in
                  let got =
                    Relation.mem (t [ v x; v y; v x'; v y' ]) closer
                  in
                  if expected <> got then
                    Alcotest.failf "closer(%s,%s,%s,%s): expected %b got %b" x
                      y x' y' expected got)
                names)
            names)
        names)
    names

(* Example 4.3: inflationary complement-of-TC with the delay technique. *)
let delayed_ct_program =
  prog
    {|
    T(X, Y) :- G(X, Y).
    T(X, Y) :- G(X, Z), T(Z, Y).
    old_T(X, Y) :- T(X, Y).
    old_T_except_final(X, Y) :- T(X, Y), T(X2, Z2), T(Z2, Y2), !T(X2, Y2).
    CT(X, Y) :- !T(X, Y), old_T(X2, Y2), !old_T_except_final(X2, Y2).
  |}

let test_inflationary_delayed_complement () =
  let stratified = Datalog.Stratified.answer comp_tc_program tc_input "CT" in
  let inflationary =
    Datalog.Inflationary.answer delayed_ct_program tc_input "CT"
  in
  check_rel "Example 4.3 complement agrees with stratified" stratified
    inflationary

(* §4.2: the flip-flop program diverges. *)
let test_flipflop_diverges () =
  let p =
    prog
      {|
    T(0) :- T(1).
    !T(1) :- T(1).
    T(1) :- T(0).
    !T(0) :- T(0).
  |}
  in
  let inst = Instance.of_list [ ("T", [ [ i 0 ] ]) ] in
  match Datalog.Noninflationary.run p inst with
  | Datalog.Noninflationary.Diverged { period; _ } ->
      Alcotest.(check int) "flip-flop period" 2 period
  | _ -> Alcotest.fail "expected divergence"

(* Datalog¬new: mint one witness per input fact. *)
let test_invent_fresh_values () =
  let p = prog {| tagged(X, N) :- item(X). |} in
  let inst = Instance.of_list [ ("item", [ [ v "a" ]; [ v "b" ] ]) ] in
  let { Datalog.Invent.instance; invented; _ } = Datalog.Invent.run p inst in
  let tagged = Instance.find "tagged" instance in
  Alcotest.(check int) "two tags" 2 (Relation.cardinal tagged);
  Alcotest.(check int) "two invented values" 2 invented;
  Alcotest.(check bool) "tags are invented" true
    (Relation.for_all (fun t -> Value.is_invented (Tuple.get t 1)) tagged)

let suite =
  [
    Alcotest.test_case "naive TC" `Quick test_naive_tc;
    Alcotest.test_case "semi-naive TC" `Quick test_seminaive_tc;
    Alcotest.test_case "stratified complement" `Quick
      test_stratified_complement;
    Alcotest.test_case "unstratifiable rejected" `Quick
      test_unstratifiable_rejected;
    Alcotest.test_case "well-founded win game (Ex 3.2)" `Quick
      test_wellfounded_win;
    Alcotest.test_case "inflationary closer (Ex 4.1)" `Quick
      test_inflationary_closer;
    Alcotest.test_case "inflationary delayed complement (Ex 4.3)" `Quick
      test_inflationary_delayed_complement;
    Alcotest.test_case "flip-flop diverges (§4.2)" `Quick
      test_flipflop_diverges;
    Alcotest.test_case "value invention mints fresh values" `Quick
      test_invent_fresh_values;
  ]
