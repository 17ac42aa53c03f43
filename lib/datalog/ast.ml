open Relational

type term = Var of string | Cst of Value.t
type atom = { pred : string; args : term list }
type hlit = HPos of atom | HNeg of atom | HBottom

type blit =
  | BPos of atom
  | BNeg of atom
  | BEq of term * term
  | BNeq of term * term

type rule = { head : hlit list; body : blit list; forall : string list }
type program = rule list

exception Check_error of string

let check_error fmt = Format.kasprintf (fun s -> raise (Check_error s)) fmt

(* --- construction ------------------------------------------------------- *)

let var x = Var x
let cst v = Cst v
let sym s = Cst (Value.Sym s)
let int n = Cst (Value.Int n)
let atom pred args = { pred; args }

let nrule heads body =
  if heads = [] then check_error "rule with empty head";
  { head = heads; body; forall = [] }

let rule h body = nrule [ HPos h ] body
let fact a = rule a []

(* --- structural queries -------------------------------------------------- *)

let atom_of_hlit = function HPos a | HNeg a -> Some a | HBottom -> None

let dedup_sorted xs = List.sort_uniq String.compare xs

let head_preds p =
  dedup_sorted
    (List.concat_map
       (fun r ->
         List.filter_map
           (fun h -> Option.map (fun a -> a.pred) (atom_of_hlit h))
           r.head)
       p)

let blit_atom = function BPos a | BNeg a -> Some a | BEq _ | BNeq _ -> None

let body_preds p =
  dedup_sorted
    (List.concat_map
       (fun r ->
         List.filter_map (fun l -> Option.map (fun a -> a.pred) (blit_atom l))
           r.body)
       p)

let idb = head_preds

let edb p =
  let heads = head_preds p in
  List.filter (fun q -> not (List.mem q heads)) (body_preds p)

let preds p = dedup_sorted (head_preds p @ body_preds p)

let adom p =
  let module VSet = Set.Make (Value) in
  let term_consts acc = function Cst v -> VSet.add v acc | Var _ -> acc in
  let atom_consts acc a = List.fold_left term_consts acc a.args in
  let hlit_consts acc = function
    | HPos a | HNeg a -> atom_consts acc a
    | HBottom -> acc
  in
  let blit_consts acc = function
    | BPos a | BNeg a -> atom_consts acc a
    | BEq (s, t) | BNeq (s, t) -> term_consts (term_consts acc s) t
  in
  let rule_consts acc r =
    let acc = List.fold_left hlit_consts acc r.head in
    List.fold_left blit_consts acc r.body
  in
  VSet.elements (List.fold_left rule_consts VSet.empty p)

let term_vars = function Var x -> [ x ] | Cst _ -> []
let atom_vars a = List.concat_map term_vars a.args

let hlit_vars = function
  | HPos a | HNeg a -> atom_vars a
  | HBottom -> []

let blit_vars = function
  | BPos a | BNeg a -> atom_vars a
  | BEq (s, t) | BNeq (s, t) -> term_vars s @ term_vars t

let first_occurrence_order xs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else (
        Hashtbl.add seen x ();
        true))
    xs

let rule_vars r =
  first_occurrence_order
    (List.concat_map hlit_vars r.head @ List.concat_map blit_vars r.body)

let body_vars r =
  first_occurrence_order (List.concat_map blit_vars r.body @ r.forall)

let head_only_vars r =
  let body_vs =
    List.concat_map blit_vars r.body @ r.forall |> dedup_sorted
  in
  first_occurrence_order
    (List.filter
       (fun x -> not (List.mem x body_vs))
       (List.concat_map hlit_vars r.head))

let positive_body_vars r =
  let direct =
    List.concat_map
      (function
        | BPos a -> atom_vars a
        | BEq _ | BNeq _ | BNeg _ -> [])
      r.body
  in
  (* equality with a constant, or with an already-bound variable, also
     binds; iterate to fixpoint *)
  let bound = ref (dedup_sorted direct) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (function
        | BEq (Var x, Cst _) | BEq (Cst _, Var x) ->
            if not (List.mem x !bound) then (
              bound := x :: !bound;
              changed := true)
        | BEq (Var x, Var y) ->
            let bx = List.mem x !bound and by = List.mem y !bound in
            if bx && not by then (
              bound := y :: !bound;
              changed := true)
            else if by && not bx then (
              bound := x :: !bound;
              changed := true)
        | _ -> ())
      r.body
  done;
  !bound

(* --- arity inference ----------------------------------------------------- *)

let infer_schema p =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let note pred n =
    match Hashtbl.find_opt tbl pred with
    | None -> Hashtbl.add tbl pred n
    | Some m when m <> n ->
        check_error "predicate %s used with arities %d and %d" pred m n
    | Some _ -> ()
  in
  let note_atom a = note a.pred (List.length a.args) in
  List.iter
    (fun r ->
      List.iter
        (fun h -> Option.iter note_atom (atom_of_hlit h))
        r.head;
      List.iter (fun l -> Option.iter note_atom (blit_atom l)) r.body)
    p;
  Hashtbl.fold (fun name a acc -> Schema.add (Schema.rel name a) acc) tbl
    Schema.empty

let check_facts schema inst =
  Instance.fold
    (fun p r () ->
      match (Schema.find p schema, Relation.arity r) with
      | Some { Schema.arity; _ }, Some a when a <> arity ->
          check_error "%s has arity %d in the program, %d in the facts" p
            arity a
      | _ -> ())
    inst ()

(* --- fragment validation -------------------------------------------------- *)

let pp_rule_head ppf r =
  match r.head with
  | HPos a :: _ | HNeg a :: _ -> Format.pp_print_string ppf a.pred
  | HBottom :: _ -> Format.pp_print_string ppf "\xe2\x8a\xa5"
  | [] -> Format.pp_print_string ppf "<empty>"

let rule_id r = Format.asprintf "rule with head %a" pp_rule_head r

let check_safe r =
  let bound = body_vars r in
  List.iter
    (fun x ->
      if not (List.mem x bound) then
        check_error "%s: head variable %s does not occur in the body"
          (rule_id r) x)
    (first_occurrence_order (List.concat_map hlit_vars r.head))

let single_head r =
  match r.head with
  | [ h ] -> h
  | _ -> check_error "%s: deterministic variants require a single head literal"
           (rule_id r)

let no_forall r =
  if r.forall <> [] then
    check_error "%s: \xe2\x88\x80-quantifiers are only allowed in N-Datalog\xc2\xac\xe2\x88\x80"
      (rule_id r)

let no_eq r =
  List.iter
    (function
      | BEq _ | BNeq _ ->
          check_error
            "%s: (in)equality literals are only allowed in nondeterministic variants"
            (rule_id r)
      | _ -> ())
    r.body

let check_arities p = ignore (infer_schema p)

let check_datalog p =
  check_arities p;
  List.iter
    (fun r ->
      no_forall r;
      no_eq r;
      (match single_head r with
      | HPos _ -> ()
      | HNeg _ | HBottom ->
          check_error "%s: pure Datalog forbids negative heads" (rule_id r));
      List.iter
        (function
          | BNeg _ ->
              check_error "%s: pure Datalog forbids body negation" (rule_id r)
          | _ -> ())
        r.body;
      check_safe r)
    p

let check_datalog_neg p =
  check_arities p;
  List.iter
    (fun r ->
      no_forall r;
      no_eq r;
      (match single_head r with
      | HPos _ -> ()
      | HNeg _ | HBottom ->
          check_error "%s: Datalog\xc2\xac forbids negative heads" (rule_id r));
      check_safe r)
    p

let check_datalog_negneg p =
  check_arities p;
  List.iter
    (fun r ->
      no_forall r;
      no_eq r;
      (match single_head r with
      | HPos _ | HNeg _ -> ()
      | HBottom ->
          check_error "%s: \xe2\x8a\xa5 is only allowed in N-Datalog\xc2\xac\xe2\x8a\xa5"
            (rule_id r));
      check_safe r)
    p

let check_invent p =
  check_arities p;
  List.iter
    (fun r ->
      no_forall r;
      no_eq r;
      (match single_head r with
      | HPos _ -> ()
      | HNeg _ | HBottom ->
          check_error "%s: Datalog\xc2\xacnew forbids negative heads" (rule_id r));
      (* head variables either occur in the body or are invented *)
      ())
    p

let check_nd_common ~allow_bottom ~allow_neg_heads ~allow_forall p =
  check_arities p;
  List.iter
    (fun r ->
      if not allow_forall then no_forall r;
      if r.head = [] then check_error "rule with empty head";
      List.iter
        (function
          | HPos _ -> ()
          | HNeg _ when allow_neg_heads -> ()
          | HNeg a ->
              check_error "rule with head %s: negative heads not allowed here"
                a.pred
          | HBottom when allow_bottom -> ()
          | HBottom ->
              check_error
                "%s: \xe2\x8a\xa5 only allowed in N-Datalog\xc2\xac\xe2\x8a\xa5"
                (rule_id r))
        r.head;
      (* Definition 5.1: every head variable occurs positively bound in the
         body. forall-variables may not appear in the head. *)
      let bound = positive_body_vars r in
      List.iter
        (fun x ->
          if not (List.mem x bound) then
            check_error "%s: head variable %s not positively bound in body"
              (rule_id r) x)
        (first_occurrence_order (List.concat_map hlit_vars r.head));
      List.iter
        (fun x ->
          if List.mem x (List.concat_map hlit_vars r.head) then
            check_error "%s: \xe2\x88\x80-variable %s occurs in the head"
              (rule_id r) x)
        r.forall)
    p

let check_ndatalog p =
  check_nd_common ~allow_bottom:false ~allow_neg_heads:true ~allow_forall:false
    p

let check_ndatalog_pos_heads p =
  check_nd_common ~allow_bottom:false ~allow_neg_heads:false
    ~allow_forall:false p

let check_ndatalog_bottom p =
  check_nd_common ~allow_bottom:true ~allow_neg_heads:false ~allow_forall:false
    p

let check_ndatalog_forall p =
  check_nd_common ~allow_bottom:false ~allow_neg_heads:false ~allow_forall:true
    p

let check_ndatalog_any p =
  check_nd_common ~allow_bottom:true ~allow_neg_heads:true ~allow_forall:true p

let is_datalog_neg_syntax p =
  List.for_all
    (fun r ->
      r.forall = []
      && (match r.head with [ HPos _ ] -> true | _ -> false)
      && List.for_all
           (function BPos _ | BNeg _ -> true | BEq _ | BNeq _ -> false)
           r.body)
    p

(* --- substitution -------------------------------------------------------- *)

type subst = (string * Value.t) list

let apply_term s = function
  | Cst v -> Some v
  | Var x -> List.assoc_opt x s

let ground_atom s a =
  let args =
    List.map
      (fun t ->
        match apply_term s t with
        | Some v -> v
        | None ->
            check_error "ground_atom: unbound variable in atom %s" a.pred)
      a.args
  in
  (a.pred, Tuple.of_list args)
