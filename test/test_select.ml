(* Fact selections ([Instance.Select], [Eval_util.fact_selection]): with
   one predicate printed, the loader keeps only the facts some body atom
   can read. The oracle is the unselected run: under every semantics
   [run] selects for, its answer must equal the unselected run's answer,
   and the loader must drop exactly the facts that no body atom
   matches, counted here from the program's atoms. *)
open Relational
open Helpers
module Q = QCheck
module Ast = Datalog.Ast

(* --- random safe programs with constants ------------------------------- *)

(* Three extensional predicates and four intensional ones in two levels:
   a rule for a level-1 predicate reads the EDB and level 1 and negates
   the EDB only; a level-2 rule reads everything and negates the EDB
   and level 1. Every program is then stratifiable. *)
let edb = [ ("e", 1); ("g", 2); ("h", 2) ]
let level1 = [ ("s", 1); ("t", 2) ]
let level2 = [ ("u", 1); ("w", 2) ]
let all_preds = edb @ level1 @ level2

(* small enough that a constant matches some facts and misses others *)
let pool = [ "a"; "b"; "c" ]
let vars = [ "X"; "Y"; "Z" ]

let term_gen =
  Q.Gen.(
    frequency
      [
        (1, map (fun c -> Ast.sym c) (oneofl pool));
        (2, map Ast.var (oneofl vars));
      ])

let atom_gen preds =
  Q.Gen.(
    let* pred, arity = oneofl preds in
    let* args = list_repeat arity term_gen in
    return (Ast.atom pred args))

let atom_vars (a : Ast.atom) =
  List.filter_map (function Ast.Var x -> Some x | Ast.Cst _ -> None) a.args

(* an atom over [preds] whose variables are among [bound]: a constant
   where [bound] is empty *)
let bound_atom_gen preds bound =
  Q.Gen.(
    let* pred, arity = oneofl preds in
    let* args =
      list_repeat arity
        (if bound = [] then map Ast.sym (oneofl pool)
         else
           frequency
             [ (1, map Ast.sym (oneofl pool)); (2, map Ast.var (oneofl bound)) ])
    in
    return (Ast.atom pred args))

let rule_gen =
  Q.Gen.(
    let* level = 1 -- 2 in
    let heads, reads, negates =
      if level = 1 then (level1, edb @ level1, edb)
      else (level2, all_preds, edb @ level1)
    in
    let* pos = list_size (1 -- 3) (atom_gen reads) in
    let bound = List.sort_uniq compare (List.concat_map atom_vars pos) in
    let* neg = list_size (0 -- 2) (bound_atom_gen negates bound) in
    let* head = bound_atom_gen heads bound in
    return
      (Ast.rule head
         (List.map (fun a -> Ast.BPos a) pos
         @ List.map (fun a -> Ast.BNeg a) neg)))

(* facts of the EDB and of two intensional predicates, over the pool *)
let facts_gen =
  Q.Gen.(
    let rel (pred, arity) =
      let* rows = list_size (0 -- 8) (list_repeat arity (oneofl pool)) in
      return (pred, List.map (List.map Value.sym) rows)
    in
    let* rels = flatten_l (List.map rel (edb @ [ ("s", 1); ("w", 2) ])) in
    return (Instance.of_list rels))

type case = {
  program : Ast.program;
  facts : Instance.t;
  keep : string;
  copies : int;  (** times the fact text is repeated *)
}

let case_gen =
  Q.Gen.(
    let* program = list_size (1 -- 6) rule_gen in
    let* facts = facts_gen in
    let* keep = map fst (oneofl all_preds) in
    let* copies = 1 -- 2 in
    return { program; facts; keep; copies })

let print_case c =
  Printf.sprintf "-a %s, facts x%d\nprogram:\n%s\nfacts:\n%s" c.keep c.copies
    (Datalog.Pretty.program_to_string c.program)
    (Instance.to_string c.facts)

(* --- the oracle --------------------------------------------------------- *)

(* [p] with the negative literals [drop] names removed: the fragment an
   engine accepts (the variables of a negative literal are bound by the
   positive ones, so the rule stays safe) *)
let without_neg drop p =
  List.map
    (fun (r : Ast.rule) ->
      {
        r with
        body =
          List.filter
            (function Ast.BNeg a -> not (drop a.Ast.pred) | _ -> true)
            r.body;
      })
    p

(* The semantics [run -a] loads a selection for, each as the program
   fragment it accepts and its answer: the instance, and for the
   well-founded semantics the unknown facts after the true ones. *)
let semantics =
  let inst i = [ i ] in
  let is_edb pred = List.mem_assoc pred edb in
  [
    ( "naive",
      without_neg (fun _ -> true),
      fun p i -> inst (Datalog.Naive.eval p i).instance );
    ( "seminaive",
      without_neg (fun _ -> true),
      fun p i -> inst (Datalog.Seminaive.eval p i).instance );
    ( "semipositive",
      without_neg (fun pred -> not (is_edb pred)),
      fun p i -> inst (Datalog.Semipositive.eval p i).instance );
    ("stratified", Fun.id, fun p i -> inst (Datalog.Stratified.eval p i).instance);
    ( "inflationary",
      Fun.id,
      fun p i -> inst (Datalog.Inflationary.eval p i).instance );
    ( "wellfounded",
      Fun.id,
      fun p i ->
        let r = Datalog.Wellfounded.eval p i in
        [ r.true_facts; Datalog.Wellfounded.unknown r ] );
  ]

(* Does some body atom of [p] over [pred], positive or negated, match
   the fact [t]: same arity, and [t]'s value at each constant? *)
let readable p pred t =
  List.exists
    (fun (r : Ast.rule) ->
      List.exists
        (function
          | Ast.BPos a | Ast.BNeg a ->
              a.Ast.pred = pred
              && List.length a.args = Tuple.arity t
              && List.for_all2
                   (fun arg k ->
                     match arg with
                     | Ast.Cst v -> Value.equal v (Tuple.get t k)
                     | Ast.Var _ -> true)
                   a.args
                   (List.init (Tuple.arity t) Fun.id)
          | Ast.BEq _ | Ast.BNeq _ -> false)
        r.body)
    p

let check_case c =
  let text =
    String.concat "\n" (List.init c.copies (fun _ -> Instance.to_string c.facts))
  in
  List.for_all
    (fun (name, fragment, answer) ->
      let p = fragment c.program in
      match Datalog.Eval_util.fact_selection p ~keep:c.keep with
      | None -> Q.Test.fail_reportf "%s: no selection for a safe program" name
      | Some select ->
          let selected = Instance.parse_facts ~select text in
          let expected =
            Instance.fold
              (fun pred r acc ->
                Relation.fold
                  (fun t acc ->
                    if pred = c.keep || readable p pred t then
                      Instance.add_fact pred t acc
                    else acc)
                  r acc)
              c.facts Instance.empty
          in
          let dropped =
            c.copies * (Instance.total_facts c.facts - Instance.total_facts expected)
          in
          let restrict = List.map (Instance.restrict [ c.keep ]) in
          if not (Instance.equal selected expected) then
            Q.Test.fail_reportf "%s: loaded\n%s\nexpected\n%s" name
              (Instance.to_string selected) (Instance.to_string expected)
          else if Instance.Select.dropped select <> dropped then
            Q.Test.fail_reportf "%s: dropped %d, expected %d" name
              (Instance.Select.dropped select) dropped
          else
            let want = restrict (answer p c.facts)
            and got = restrict (answer p selected) in
            List.equal Instance.equal want got
            || Q.Test.fail_reportf "%s: answer\n%s\nexpected\n%s" name
                 (String.concat "\n--\n" (List.map Instance.to_string got))
                 (String.concat "\n--\n" (List.map Instance.to_string want)))
    semantics

let prop_oracle =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:300 ~name:"selected run = unselected run, per semantics"
       (Q.make ~print:print_case case_gen)
       check_case)

(* --- fixed cases -------------------------------------------------------- *)

let load ~keep src text =
  match Datalog.Eval_util.fact_selection (prog src) ~keep with
  | None -> Alcotest.fail "no selection"
  | Some select ->
      let inst = Instance.parse_facts ~select text in
      (inst, Instance.Select.dropped select)

(* [g] is read with a constant by one atom and a variable by another: it
   keeps every fact; [h] is read by no atom and keeps none *)
let test_mixed_reads () =
  let inst, dropped =
    load ~keep:"A" "A(X) :- g(X, a).\nB(X, Y) :- g(X, Y), !k(X, b)."
      "g(x, a). g(y, b). k(x, b). k(x, c). h(x)."
  in
  Alcotest.(check string) "kept"
    "g(x, a).\ng(y, b).\nk(x, b)."
    (Instance.to_string inst);
  Alcotest.(check int) "dropped" 2 dropped

(* the printed predicate keeps every fact, an EDB one included *)
let test_keep_edb () =
  let inst, dropped =
    load ~keep:"g" "A(X) :- g(X, a)." "g(x, a). g(y, b). g(z, c)."
  in
  Alcotest.(check int) "kept" 3 (Instance.total_facts inst);
  Alcotest.(check int) "dropped" 0 dropped

(* values are compared, not bytes: [c0] and ['c0'] are one symbol, the
   integer 1 and the string "1" are not *)
let test_values () =
  let inst, dropped =
    load ~keep:"A" "A(X) :- L(X, c0), N(X, 1)."
      "L(p, 'c0'). L(q, c0). L(r, \"c0\"). N(p, 1). N(p, \"1\")."
  in
  Alcotest.(check string) "kept"
    "L(p, c0).\nL(q, c0).\nN(p, 1)."
    (Instance.to_string inst);
  Alcotest.(check int) "dropped" 2 dropped

(* a fact whose arity is not its predicate's in the program is kept,
   read by a body atom or not, so the load's arity check sees it as it
   does without a selection; [h], in no atom, still keeps nothing *)
let test_wrong_arity_kept () =
  let inst, dropped =
    load ~keep:"R" "G(X, Y, Z) :- H(X, Y, Z).\nR(X) :- G(X, c, d)."
      "G(a, b). H(a, c, d). H(a, b, b). h(x)."
  in
  Alcotest.(check string) "kept" "G(a, b).\nH(a, b, b).\nH(a, c, d)."
    (Instance.to_string inst);
  Alcotest.(check int) "dropped" 1 dropped;
  let inst, dropped =
    load ~keep:"R" "R(X) :- G(X, c, d).\nT(X) :- R(X)." "T(a, b). T(c, d)."
  in
  Alcotest.(check int) "head-only T kept" 2 (Instance.total_facts inst);
  Alcotest.(check int) "none dropped" 0 dropped

(* a rule that reads the active domain reads every fact: no selection *)
let test_needs_dom () =
  Alcotest.(check bool) "none" true
    (Option.is_none
       (Datalog.Eval_util.fact_selection (prog "C(X) :- !L(X, c0).") ~keep:"C"))

(* A selection changes nothing about how a text fails: a fault in a
   fact it would drop fails the load as it does without it. Where both
   load, the selected instance holds the facts of [P] with [a] first,
   every fact of [P] whose arity is not the schema's 2 (for the
   caller's arity check) and every fact of [Q]. *)
let prop_same_failures =
  QCheck_alcotest.to_alcotest
    (Q.Test.make ~count:1000 ~name:"a selection fails where the loader fails"
       (Q.make ~print:(Printf.sprintf "%S") Test_loader.fact_text_gen)
       (fun text ->
         let select =
           Instance.Select.make ~keep:"Q"
             (Schema.of_list [ Schema.rel "P" 2 ])
             [ ("P", [ Some (v "a"); None ]) ]
         in
         let outcome f = match f () with i -> Ok i | exception Failure m -> Error m in
         match
           ( outcome (fun () -> Instance.parse_facts text),
             outcome (fun () -> Instance.parse_facts ~select text) )
         with
         | Error a, Error b -> String.equal a b || Q.Test.fail_reportf "%S / %S" a b
         | Ok full, Ok sel ->
             let want =
               Instance.fold
                 (fun pred r acc ->
                   Relation.fold
                     (fun t acc ->
                       if
                         pred = "Q"
                         || pred = "P"
                            && (Tuple.arity t <> 2
                               || Value.equal (Tuple.get t 0) (v "a"))
                       then Instance.add_fact pred t acc
                       else acc)
                     r acc)
                 full Instance.empty
             in
             Instance.equal want sel
             || Q.Test.fail_reportf "got\n%s\nwant\n%s" (Instance.to_string sel)
                  (Instance.to_string want)
         | Ok _, Error m -> Q.Test.fail_reportf "selected load failed: %s" m
         | Error m, Ok _ -> Q.Test.fail_reportf "selected load passed: %s" m))

let suite =
  [
    prop_oracle;
    Alcotest.test_case "constant and variable reads keep all" `Quick
      test_mixed_reads;
    Alcotest.test_case "the printed EDB predicate keeps all" `Quick
      test_keep_edb;
    Alcotest.test_case "constants compare as values" `Quick test_values;
    Alcotest.test_case "a rule reading the domain selects nothing" `Quick
      test_needs_dom;
    Alcotest.test_case "a fact of another arity is kept for the check"
      `Quick test_wrong_arity_kept;
    prop_same_failures;
  ]
