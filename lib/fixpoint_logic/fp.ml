open Relational

type term = Var of string | Cst of Value.t

type formula =
  | True
  | False
  | Atom of string * term list
  | Eq of term * term
  | Not of formula
  | And of formula * formula
  | Or of formula * formula
  | Implies of formula * formula
  | Exists of string list * formula
  | Forall of string list * formula
  | Ifp of fp * term list
  | Pfp of fp * term list
  | Witness of string list * formula

and fp = { rel : string; vars : string list; body : formula }

exception Undefined of string
exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

(* --- free variables / constants ------------------------------------------ *)

(* Both share Fo's hashtable-backed collectors: this module only supplies
   the traversal over its own (larger) formula type. *)

let free_vars f =
  Fo.collect_free_vars @@ fun note ->
  let term bound = function Var x -> note bound x | Cst _ -> () in
  let rec go bound = function
    | True | False -> ()
    | Atom (_, ts) -> List.iter (term bound) ts
    | Eq (a, b) ->
        term bound a;
        term bound b
    | Not f -> go bound f
    | And (a, b) | Or (a, b) | Implies (a, b) ->
        go bound a;
        go bound b
    | Exists (xs, f) | Forall (xs, f) -> go (xs @ bound) f
    | Ifp (fp, ts) | Pfp (fp, ts) ->
        (* the fixpoint's column variables are bound inside the body; the
           argument terms are free occurrences *)
        go (fp.vars @ bound) fp.body;
        List.iter (term bound) ts
    | Witness (_, f) ->
        (* witness variables remain free (the formula holds of the
           selected valuations) *)
        go bound f
  in
  go [] f

let constants f =
  Fo.collect_constants @@ fun note ->
  let term = function Cst v -> note v | Var _ -> () in
  let rec go = function
    | True | False -> ()
    | Atom (_, ts) -> List.iter term ts
    | Eq (a, b) ->
        term a;
        term b
    | Not f | Exists (_, f) | Forall (_, f) | Witness (_, f) -> go f
    | And (a, b) | Or (a, b) | Implies (a, b) ->
        go a;
        go b
    | Ifp (fp, ts) | Pfp (fp, ts) ->
        go fp.body;
        List.iter term ts
  in
  go f

(* --- witness policies ------------------------------------------------------ *)

type policy = int -> Value.t list -> Tuple.t list -> Tuple.t

let first_policy _site _key candidates = List.hd candidates

let seeded_policy seed site key candidates =
  let h =
    List.fold_left
      (fun acc v -> (acc * 31) + Value.hash v)
      ((seed * 131) + site)
      key
  in
  List.nth candidates (abs h mod List.length candidates)

(* --- naive evaluation (reference oracle) ----------------------------------- *)

(* Assign stable integer ids to Witness nodes (preorder, physical). *)
let number_witnesses f =
  let tbl = Hashtbl.create 8 in
  let counter = ref 0 in
  let rec go g =
    match g with
    | True | False | Eq _ | Atom _ -> ()
    | Not f | Exists (_, f) | Forall (_, f) -> go f
    | And (a, b) | Or (a, b) | Implies (a, b) ->
        go a;
        go b
    | Ifp (fp, _) | Pfp (fp, _) -> go fp.body
    | Witness (_, inner) ->
        if not (Hashtbl.mem tbl (Obj.repr g)) then (
          Hashtbl.add tbl (Obj.repr g) !counter;
          incr counter);
        go inner
  in
  go f;
  fun w -> try Hashtbl.find tbl (Obj.repr w) with Not_found -> -1

let lookup env x =
  match List.assoc_opt x env with
  | Some v -> v
  | None -> type_error "unbound variable %s" x

let term_value env = function Var x -> lookup env x | Cst v -> v

(* Build a [holds] closure over a fixed domain and witness-choice memo.
   All queries evaluated through one closure share the same choice
   function, as the W semantics requires. *)
let make_holds ~policy inst f dom =
  let witness_id = number_witnesses f in
  let choices : (int * Value.t list, Tuple.t option) Hashtbl.t =
    Hashtbl.create 32
  in
  let lookup_rel relenv p =
    match List.assoc_opt p relenv with
    | Some r -> r
    | None -> Instance.find p inst
  in
  let rec holds relenv env f =
    match f with
    | True -> true
    | False -> false
    | Atom (p, ts) ->
        let tup = Tuple.of_list (List.map (term_value env) ts) in
        Relation.mem tup (lookup_rel relenv p)
    | Eq (a, b) -> Value.equal (term_value env a) (term_value env b)
    | Not f -> not (holds relenv env f)
    | And (a, b) -> holds relenv env a && holds relenv env b
    | Or (a, b) -> holds relenv env a || holds relenv env b
    | Implies (a, b) -> (not (holds relenv env a)) || holds relenv env b
    | Exists (xs, f) -> exists_val relenv env xs f
    | Forall (xs, f) -> not (exists_val relenv env xs (Not f))
    | Ifp (fp, ts) -> check_fp relenv env fp ts (eval_ifp relenv env fp)
    | Pfp (fp, ts) -> check_fp relenv env fp ts (eval_pfp relenv env fp)
    | Witness (xs, g) as w -> (
        let params =
          List.filter (fun v -> not (List.mem v xs)) (free_vars g)
        in
        let key = List.map (lookup env) params in
        let site = witness_id w in
        let chosen =
          match Hashtbl.find_opt choices (site, key) with
          | Some c -> c
          | None ->
              let candidates =
                satisfying relenv env xs g |> List.sort_uniq Tuple.compare
              in
              let c =
                match candidates with
                | [] -> None
                | _ -> Some (policy site key candidates)
              in
              Hashtbl.add choices (site, key) c;
              c
        in
        match chosen with
        | None -> false
        | Some c ->
            let current = Tuple.of_list (List.map (lookup env) xs) in
            Tuple.equal current c)
  and check_fp _relenv env fp ts j =
    let tup = Tuple.of_list (List.map (term_value env) ts) in
    if Tuple.arity tup <> List.length fp.vars then
      type_error "fixpoint %s: %d arguments for arity %d" fp.rel
        (Tuple.arity tup) (List.length fp.vars)
    else Relation.mem tup j
  and exists_val relenv env xs f =
    match xs with
    | [] -> holds relenv env f
    | x :: rest ->
        List.exists (fun v -> exists_val relenv ((x, v) :: env) rest f) dom
  and satisfying relenv env xs g =
    let rec enum env' = function
      | [] ->
          if holds relenv env' g then
            [ Tuple.of_list (List.map (lookup env') xs) ]
          else []
      | x :: rest ->
          List.concat_map (fun v -> enum ((x, v) :: env') rest) dom
    in
    enum env xs
  and stage relenv env fp j =
    Relation.of_list (satisfying ((fp.rel, j) :: relenv) env fp.vars fp.body)
  and eval_ifp relenv env fp =
    let rec loop j =
      let next = Relation.union j (stage relenv env fp j) in
      if Relation.equal next j then j else loop next
    in
    loop Relation.empty
  and eval_pfp relenv env fp =
    let module RSet = Set.Make (Relation) in
    let rec loop j seen =
      let next = stage relenv env fp j in
      if Relation.equal next j then j
      else if RSet.mem next seen then
        raise
          (Undefined (Printf.sprintf "PFP %s cycles without converging" fp.rel))
      else loop next (RSet.add next seen)
    in
    loop Relation.empty RSet.empty
  in
  holds

let make_dom inst f =
  let module VSet = Set.Make (Value) in
  VSet.elements
    (VSet.union
       (VSet.of_list (Instance.adom inst))
       (VSet.of_list (constants f)))

let check_covered what f vars =
  match List.filter (fun x -> not (List.mem x vars)) (free_vars f) with
  | [] -> ()
  | missing ->
      invalid_arg
        (Printf.sprintf "Fp.%s: free variable%s %s not in output list" what
           (if List.length missing = 1 then "" else "s")
           (String.concat ", " missing))

let check_closed what f =
  match free_vars f with
  | [] -> ()
  | fv ->
      invalid_arg
        (Printf.sprintf "Fp.%s: free variable%s %s" what
           (if List.length fv = 1 then "" else "s")
           (String.concat ", " fv))

let eval_naive ?(policy = first_policy) inst f vars =
  check_covered "eval" f vars;
  let dom = make_dom inst f in
  let holds = make_holds ~policy inst f dom in
  let rec enum env = function
    | [] ->
        if holds [] env f then
          [ Tuple.of_list (List.map (fun x -> List.assoc x env) vars) ]
        else []
    | x :: rest -> List.concat_map (fun v -> enum ((x, v) :: env) rest) dom
  in
  Relation.of_list (enum [] vars)

let sentence_naive ?(policy = first_policy) inst f =
  check_closed "sentence" f;
  let dom = make_dom inst f in
  let holds = make_holds ~policy inst f dom in
  holds [] [] f

(* --- compiled evaluation ---------------------------------------------------- *)

(* The compiled path lowers a fixpoint-logic formula to a plain FO formula
   over a working instance: each (closed, non-parameterized) IFP/PFP
   subterm is iterated to its fixpoint relation — the body compiled once
   with {!Fo.compile} and executed per round — and replaced by an atom
   over a fresh relation holding the result. Anything the lowering cannot
   handle ([W], parameterized fixpoints, bodies referencing an enclosing
   fixpoint's relation) raises [Fallback] and the whole query reverts to
   the naive oracle above.

   Internal relations live in a reserved "fp#" namespace:
   - "fp#<n>"        the n-th fixpoint's result;
   - "fp#<n>@rec"    the bound relation variable during iteration (the
                     rename keeps a same-named database relation from
                     leaking through round 0, where the fixpoint relation
                     is empty and [Instance.set] drops the binding);
   - "fp#<n>@delta"  the previous round's new tuples (semi-naive);
   - "fp#dom"        a unary relation holding the whole formula's
                     constants, so the active domain every compiled
                     subquery sees equals [make_dom inst f] exactly. *)

exception Fallback

type lctx = {
  mutable work : Instance.t;
  trace : Observe.Trace.ctx;
  mutable next_id : int;
}

let lower_term = function Var x -> Fo.Var x | Cst v -> Fo.Cst v

let fo_mentions name f =
  let found = ref false in
  let rec go = function
    | Fo.True | Fo.False | Fo.Eq _ -> ()
    | Fo.Atom (p, _) -> if String.equal p name then found := true
    | Fo.Not f | Fo.Exists (_, f) | Fo.Forall (_, f) -> go f
    | Fo.And (a, b) | Fo.Or (a, b) | Fo.Implies (a, b) ->
        go a;
        go b
  in
  go f;
  !found

(* [rel] occurs only under ∧ / ∨ / ∃ — the fragment where the per-round
   novelty of the body is exactly covered by the per-occurrence delta
   derivatives (the semi-naive expansion distributes). ∀ and ¬ above an
   occurrence break that (a single new tuple can flip a universally
   quantified subformula), so such bodies iterate by full recompute. *)
let exist_positive rel f =
  let ok = ref true in
  let rec go safe = function
    | Fo.Atom (p, _) -> if String.equal p rel && not safe then ok := false
    | Fo.True | Fo.False | Fo.Eq _ -> ()
    | Fo.And (a, b) | Fo.Or (a, b) ->
        go safe a;
        go safe b
    | Fo.Exists (_, g) -> go safe g
    | Fo.Not g | Fo.Forall (_, g) -> go false g
    | Fo.Implies (a, b) ->
        go false a;
        go false b
  in
  go true f;
  !ok

let count_occurrences rel f =
  let n = ref 0 in
  let rec go = function
    | Fo.Atom (p, _) -> if String.equal p rel then incr n
    | Fo.True | Fo.False | Fo.Eq _ -> ()
    | Fo.Not g | Fo.Exists (_, g) | Fo.Forall (_, g) -> go g
    | Fo.And (a, b) | Fo.Or (a, b) | Fo.Implies (a, b) ->
        go a;
        go b
  in
  go f;
  !n

(* Replace the [i]-th occurrence (preorder, 0-based) of an atom over
   [rel] with the same atom over [del]. *)
let substitute_nth rel del i f =
  let k = ref 0 in
  let rec go = function
    | Fo.Atom (p, ts) when String.equal p rel ->
        let j = !k in
        incr k;
        Fo.Atom ((if j = i then del else p), ts)
    | (Fo.True | Fo.False | Fo.Eq _ | Fo.Atom _) as f -> f
    | Fo.Not g -> Fo.Not (go g)
    | Fo.And (a, b) ->
        let a = go a in
        Fo.And (a, go b)
    | Fo.Or (a, b) ->
        let a = go a in
        Fo.Or (a, go b)
    | Fo.Implies (a, b) ->
        let a = go a in
        Fo.Implies (a, go b)
    | Fo.Exists (xs, g) -> Fo.Exists (xs, go g)
    | Fo.Forall (xs, g) -> Fo.Forall (xs, go g)
  in
  go f

let rec or_branches = function
  | Fo.Or (a, b) -> or_branches a @ or_branches b
  | f -> [ f ]

(* Drop top-level disjuncts of a derivative that mention no delta atom:
   from round 2 on, their satisfactions were already produced — by round
   1's full body evaluation (delta-free branches) or by the derivative
   whose delta sits in that branch — and would only be diffed away. *)
let prune_derivative del d =
  match List.filter (fo_mentions del) (or_branches d) with
  | [] -> Fo.False
  | f :: rest -> List.fold_left (fun a b -> Fo.Or (a, b)) f rest

(* [Fo.run_plan] with its latency sampled into the [fp.plan] histogram —
   the per-derivative plan-run distribution the EXPLAIN/percentile
   tooling reads. Untraced runs skip the clock reads entirely. *)
let run_plan_timed ~trace inst p =
  if not (Observe.Trace.enabled trace) then Fo.run_plan ~trace inst p
  else begin
    let t0 = Observe.Trace.now () in
    let r = Fo.run_plan ~trace inst p in
    Observe.Trace.observe_s trace "fp.plan" (Observe.Trace.now () -. t0);
    r
  end

let run_ifp ctx recname delname vars body =
  let trace = ctx.trace in
  let body_plan = Fo.compile ~trace body vars in
  if exist_positive recname body then begin
    (* semi-naive differential iteration: round 1 evaluates the full body
       against the empty fixpoint relation; later rounds evaluate one
       derivative per occurrence of the relation, each substituting the
       delta at that occurrence, and keep what round n hadn't derived *)
    let m = count_occurrences recname body in
    let dplans =
      List.init m (fun i ->
          prune_derivative delname (substitute_nth recname delname i body))
      |> List.sort_uniq compare
      |> List.map (fun d -> Fo.compile ~trace d vars)
    in
    Observe.Trace.incr trace "fp.rounds";
    let j = ref (Fo.run_plan ~trace ctx.work body_plan) in
    let delta = ref !j in
    while not (Relation.is_empty !delta) do
      Observe.Trace.incr trace "fp.rounds";
      let inst =
        Instance.set delname !delta (Instance.set recname !j ctx.work)
      in
      let derived =
        List.fold_left Relation.union Relation.empty
          (List.map (run_plan_timed ~trace inst) dplans)
      in
      let d = Relation.diff derived !j in
      j := Relation.union !j d;
      delta := d
    done;
    !j
  end
  else
    let rec loop j =
      Observe.Trace.incr trace "fp.rounds";
      let next =
        Relation.union j
          (Fo.run_plan ~trace (Instance.set recname j ctx.work) body_plan)
      in
      if Relation.equal next j then j else loop next
    in
    loop Relation.empty

let run_pfp ctx recname rel vars body =
  let trace = ctx.trace in
  let plan = Fo.compile ~trace body vars in
  let module RSet = Set.Make (Relation) in
  let rec loop j seen =
    Observe.Trace.incr trace "fp.rounds";
    let next = Fo.run_plan ~trace (Instance.set recname j ctx.work) plan in
    if Relation.equal next j then j
    else if RSet.mem next seen then
      raise (Undefined (Printf.sprintf "PFP %s cycles without converging" rel))
    else loop next (RSet.add next seen)
  in
  loop Relation.empty RSet.empty

let rec lower ctx bound f =
  match f with
  | True -> Fo.True
  | False -> Fo.False
  | Atom (p, ts) ->
      let p =
        match List.assoc_opt p bound with Some r -> r | None -> p
      in
      Fo.Atom (p, List.map lower_term ts)
  | Eq (a, b) -> Fo.Eq (lower_term a, lower_term b)
  | Not f -> Fo.Not (lower ctx bound f)
  | And (a, b) -> Fo.And (lower ctx bound a, lower ctx bound b)
  | Or (a, b) -> Fo.Or (lower ctx bound a, lower ctx bound b)
  | Implies (a, b) -> Fo.Implies (lower ctx bound a, lower ctx bound b)
  | Exists (xs, f) -> Fo.Exists (xs, lower ctx bound f)
  | Forall (xs, f) -> Fo.Forall (xs, lower ctx bound f)
  | Witness _ -> raise Fallback
  | (Ifp (fp, ts) | Pfp (fp, ts)) as node ->
      if List.length ts <> List.length fp.vars then
        type_error "fixpoint %s: %d arguments for arity %d" fp.rel
          (List.length ts) (List.length fp.vars);
      (* a parameterized fixpoint (body free variables beyond the column
         variables) is a different relation per outer valuation *)
      if
        List.exists
          (fun x -> not (List.mem x fp.vars))
          (free_vars fp.body)
      then raise Fallback;
      let n = ctx.next_id in
      ctx.next_id <- n + 1;
      let recname = Printf.sprintf "fp#%d@rec" n in
      let delname = Printf.sprintf "fp#%d@delta" n in
      let body = lower ctx ((fp.rel, recname) :: bound) fp.body in
      (* a nested fixpoint whose body references an enclosing fixpoint's
         relation would need re-evaluation per enclosing round *)
      if
        List.exists
          (fun (r, rn) -> (not (String.equal r fp.rel)) && fo_mentions rn body)
          bound
      then raise Fallback;
      let j =
        match node with
        | Ifp _ -> run_ifp ctx recname delname fp.vars body
        | _ -> run_pfp ctx recname fp.rel fp.vars body
      in
      let resname = Printf.sprintf "fp#%d" n in
      ctx.work <- Instance.set resname j ctx.work;
      Fo.Atom (resname, List.map lower_term ts)

let reserved name =
  String.length name >= 3 && String.equal (String.sub name 0 3) "fp#"

let uses_reserved_names inst f =
  List.exists reserved (Instance.names inst)
  ||
  let found = ref false in
  let rec go = function
    | True | False | Eq _ -> ()
    | Atom (p, _) -> if reserved p then found := true
    | Not f | Exists (_, f) | Forall (_, f) | Witness (_, f) -> go f
    | And (a, b) | Or (a, b) | Implies (a, b) ->
        go a;
        go b
    | Ifp (fp, _) | Pfp (fp, _) ->
        if reserved fp.rel then found := true;
        go fp.body
  in
  go f;
  !found

let lower_query trace inst f =
  if uses_reserved_names inst f then raise Fallback;
  let work =
    match constants f with
    | [] -> inst
    | cs ->
        Instance.set "fp#dom"
          (Relation.of_list (List.map (fun v -> Tuple.of_list [ v ]) cs))
          inst
  in
  let ctx = { work; trace; next_id = 0 } in
  let lf = lower ctx [] f in
  (ctx.work, lf)

let eval ?(policy = first_policy) ?(trace = Observe.Trace.null) inst f vars =
  check_covered "eval" f vars;
  match lower_query trace inst f with
  | work, lf -> Fo.eval ~trace work lf vars
  | exception Fallback ->
      Observe.Trace.incr trace "fp.fallback";
      eval_naive ~policy inst f vars

let sentence ?(policy = first_policy) ?(trace = Observe.Trace.null) inst f =
  check_closed "sentence" f;
  match lower_query trace inst f with
  | work, lf -> Fo.sentence ~trace work lf
  | exception Fallback ->
      Observe.Trace.incr trace "fp.fallback";
      sentence_naive ~policy inst f

(* Enumerate all outcomes: DFS over the tree of witness decisions. A path
   is a list of chosen indices in decision order; choices beyond the path
   default to index 0, and the run records each decision's candidate
   count, from which the next path is computed (mixed-radix DFS). *)
let outcomes ?(max_outcomes = 10_000) inst f vars =
  let results = ref [] in
  let runs = ref 0 in
  let rec run prefix =
    incr runs;
    if !runs > max_outcomes then
      failwith "Fp.outcomes: too many choice functions";
    let remaining = ref prefix in
    let counts = ref [] in
    let policy _site _key candidates =
      let idx =
        match !remaining with
        | i :: rest ->
            remaining := rest;
            i
        | [] -> 0
      in
      counts := List.length candidates :: !counts;
      List.nth candidates (min idx (List.length candidates - 1))
    in
    let r = eval ~policy inst f vars in
    if not (List.exists (Relation.equal r) !results) then
      results := r :: !results;
    let counts = List.rev !counts in
    let digits =
      List.mapi
        (fun i _ -> try List.nth prefix i with _ -> 0)
        counts
    in
    (* next path: bump the last digit with headroom, truncate after it *)
    let rec last_bumpable i best =
      match i with
      | _ when i >= List.length counts -> best
      | _ ->
          let d = List.nth digits i and c = List.nth counts i in
          last_bumpable (i + 1) (if d + 1 < c then Some i else best)
    in
    match last_bumpable 0 None with
    | None -> ()
    | Some i ->
        let next =
          List.init (i + 1) (fun j ->
              if j = i then List.nth digits j + 1 else List.nth digits j)
        in
        run next
  in
  run [];
  List.rev !results

(* --- constructors / printing -------------------------------------------------- *)

let ifp ~rel ~vars body ts = Ifp ({ rel; vars; body }, ts)
let pfp ~rel ~vars body ts = Pfp ({ rel; vars; body }, ts)
let atom p xs = Atom (p, List.map (fun x -> Var x) xs)

let pp_term ppf = function
  | Var x -> Format.pp_print_string ppf x
  | Cst v -> Value.pp ppf v

let pp_vars ppf xs =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
    Format.pp_print_string ppf xs

let pp_terms ppf ts =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    pp_term ppf ts

let rec pp ppf = function
  | True -> Format.pp_print_string ppf "true"
  | False -> Format.pp_print_string ppf "false"
  | Atom (p, ts) -> Format.fprintf ppf "%s(%a)" p pp_terms ts
  | Eq (a, b) -> Format.fprintf ppf "%a = %a" pp_term a pp_term b
  | Not f -> Format.fprintf ppf "\xc2\xac(%a)" pp f
  | And (a, b) -> Format.fprintf ppf "(%a \xe2\x88\xa7 %a)" pp a pp b
  | Or (a, b) -> Format.fprintf ppf "(%a \xe2\x88\xa8 %a)" pp a pp b
  | Implies (a, b) -> Format.fprintf ppf "(%a \xe2\x86\x92 %a)" pp a pp b
  | Exists (xs, f) -> Format.fprintf ppf "\xe2\x88\x83%a (%a)" pp_vars xs pp f
  | Forall (xs, f) -> Format.fprintf ppf "\xe2\x88\x80%a (%a)" pp_vars xs pp f
  | Ifp (fp, ts) ->
      Format.fprintf ppf "[IFP_{%s,%a} %a](%a)" fp.rel pp_vars fp.vars pp
        fp.body pp_terms ts
  | Pfp (fp, ts) ->
      Format.fprintf ppf "[PFP_{%s,%a} %a](%a)" fp.rel pp_vars fp.vars pp
        fp.body pp_terms ts
  | Witness (xs, f) -> Format.fprintf ppf "W%a (%a)" pp_vars xs pp f
