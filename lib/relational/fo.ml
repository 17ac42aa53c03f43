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

(* --- shared syntax collectors ------------------------------------------- *)

(* The free-variable and constant collectors are shared with the
   fixpoint-logic formulas (a structurally different type): each logic
   supplies its own traversal, the hashtable-backed dedup/ordering lives
   here once. *)

let collect_free_vars run =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let note bound x =
    if (not (List.mem x bound)) && not (Hashtbl.mem seen x) then (
      Hashtbl.add seen x ();
      out := x :: !out)
  in
  run note;
  List.rev !out

let collect_constants run =
  let module VSet = Set.Make (Value) in
  let acc = ref VSet.empty in
  run (fun v -> acc := VSet.add v !acc);
  VSet.elements !acc

let free_vars f =
  collect_free_vars (fun note ->
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
      in
      go [] f)

let constants f =
  collect_constants (fun note ->
      let term = function Cst v -> note v | Var _ -> () in
      let rec go = function
        | True | False -> ()
        | Atom (_, ts) -> List.iter term ts
        | Eq (a, b) ->
            term a;
            term b
        | Not f -> go f
        | And (a, b) | Or (a, b) | Implies (a, b) ->
            go a;
            go b
        | Exists (_, f) | Forall (_, f) -> go f
      in
      go f)

type env = (string * Value.t) list

let lookup env x =
  match List.assoc_opt x env with
  | Some v -> v
  | None -> failwith (Printf.sprintf "Fo: unbound variable %s" x)

let term_value env = function Var x -> lookup env x | Cst v -> v

let default_dom inst f =
  let module VSet = Set.Make (Value) in
  VSet.elements
    (VSet.union
       (VSet.of_list (Instance.adom inst))
       (VSet.of_list (constants f)))

let check_covered what fv vars =
  match List.filter (fun x -> not (List.mem x vars)) fv with
  | [] -> ()
  | missing ->
      invalid_arg
        (Printf.sprintf "Fo.%s: free variable%s %s not in output list" what
           (if List.length missing = 1 then "" else "s")
           (String.concat ", " missing))

(* --- naive reference evaluator ------------------------------------------ *)

let holds ?dom inst env f =
  let dom = match dom with Some d -> d | None -> default_dom inst f in
  let rec go env = function
    | True -> true
    | False -> false
    | Atom (p, ts) ->
        Instance.mem_fact p
          (Tuple.of_list (List.map (term_value env) ts))
          inst
    | Eq (a, b) -> Value.equal (term_value env a) (term_value env b)
    | Not f -> not (go env f)
    | And (a, b) -> go env a && go env b
    | Or (a, b) -> go env a || go env b
    | Implies (a, b) -> (not (go env a)) || go env b
    | Exists (xs, f) -> quant_ex env xs f
    | Forall (xs, f) -> not (quant_ex env xs (Not f))
  and quant_ex env xs f =
    match xs with
    | [] -> go env f
    | x :: rest -> List.exists (fun v -> quant_ex ((x, v) :: env) rest f) dom
  in
  go env f

let eval_naive ?dom inst f vars =
  check_covered "eval" (free_vars f) vars;
  let dom = match dom with Some d -> d | None -> default_dom inst f in
  let rec enum env = function
    | [] ->
        if holds ~dom inst env f then
          [ Tuple.of_list (List.map (fun x -> lookup env x) vars) ]
        else []
    | x :: rest -> List.concat_map (fun v -> enum ((x, v) :: env) rest) dom
  in
  Relation.of_list (enum [] vars)

let sentence_naive ?dom inst f =
  (match free_vars f with
  | [] -> ()
  | missing ->
      invalid_arg
        (Printf.sprintf "Fo.sentence: free variable%s %s"
           (if List.length missing = 1 then "" else "s")
           (String.concat ", " missing)));
  holds ?dom inst [] f

(* --- printing ------------------------------------------------------------ *)

let pp_term ppf = function
  | Var x -> Format.pp_print_string ppf x
  | Cst v -> Value.pp ppf v

let rec pp ppf = function
  | True -> Format.pp_print_string ppf "true"
  | False -> Format.pp_print_string ppf "false"
  | Atom (p, ts) ->
      Format.fprintf ppf "%s(%a)" p
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           pp_term)
        ts
  | Eq (a, b) -> Format.fprintf ppf "%a = %a" pp_term a pp_term b
  | Not f -> Format.fprintf ppf "\xc2\xac%a" pp_paren f
  | And (a, b) ->
      Format.fprintf ppf "%a \xe2\x88\xa7 %a" pp_paren a pp_paren b
  | Or (a, b) -> Format.fprintf ppf "%a \xe2\x88\xa8 %a" pp_paren a pp_paren b
  | Implies (a, b) ->
      Format.fprintf ppf "%a \xe2\x86\x92 %a" pp_paren a pp_paren b
  | Exists (xs, f) ->
      Format.fprintf ppf "\xe2\x88\x83%a %a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
           Format.pp_print_string)
        xs pp_paren f
  | Forall (xs, f) ->
      Format.fprintf ppf "\xe2\x88\x80%a %a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
           Format.pp_print_string)
        xs pp_paren f

and pp_paren ppf f =
  match f with
  | True | False | Atom _ | Eq _ | Not _ -> pp ppf f
  | _ -> Format.fprintf ppf "(%a)" pp f

(* --- safe-range compilation to the algebra ------------------------------- *)

module A = Algebra

(* Negation-normal form: ¬ pushed to atoms/equalities/∃, → and ∀
   eliminated. After [nnf], [Not] wraps only [Atom], [Eq] or [Exists]. *)
let rec nnf f =
  match f with
  | True | False | Atom _ | Eq _ -> f
  | Not g -> nnf_not g
  | And (a, b) -> And (nnf a, nnf b)
  | Or (a, b) -> Or (nnf a, nnf b)
  | Implies (a, b) -> Or (nnf_not a, nnf b)
  | Exists (xs, g) -> Exists (xs, nnf g)
  | Forall (xs, g) -> Not (Exists (xs, nnf_not g))

and nnf_not f =
  match f with
  | True -> False
  | False -> True
  | Atom _ | Eq _ -> Not f
  | Not g -> nnf g
  | And (a, b) -> Or (nnf_not a, nnf_not b)
  | Or (a, b) -> And (nnf_not a, nnf_not b)
  | Implies (a, b) -> And (nnf a, nnf_not b)
  | Exists (xs, g) -> Not (Exists (xs, nnf g))
  | Forall (xs, g) -> Exists (xs, nnf_not g)

(* Constant folding. Dropping a subformula may drop free variables; the
   compiler re-binds missing output variables by domain expansion, which
   coincides with the naive semantics for the dropped operand. *)
let rec simplify f =
  match f with
  | True | False | Atom _ -> f
  | Eq (Cst c, Cst d) -> if Value.equal c d then True else False
  | Eq _ -> f
  | Not g -> (
      match simplify g with True -> False | False -> True | g -> Not g)
  | And (a, b) -> (
      match (simplify a, simplify b) with
      | False, _ | _, False -> False
      | True, x | x, True -> x
      | a, b -> And (a, b))
  | Or (a, b) -> (
      match (simplify a, simplify b) with
      | True, _ | _, True -> True
      | False, x | x, False -> x
      | a, b -> Or (a, b))
  | Implies (a, b) -> (
      match (simplify a, simplify b) with
      | False, _ -> True
      | True, b -> b
      | _, True -> True
      | a, b -> Implies (a, b))
  | Exists (xs, g) -> (
      match simplify g with False -> False | g -> Exists (xs, g))
  | Forall (xs, g) -> (
      match simplify g with True -> True | g -> Forall (xs, g))

(* Compilation context. [dom] is a unary algebra expression denoting the
   quantification domain; [restrict] is set on the explicit-[?dom] path,
   where atom columns and constant generators must additionally be
   filtered against [dom] (under the default domain they are covered by
   construction: adom ∪ constants(f)). [fallbacks] counts the columns
   materialized by bounded active-domain expansion — the per-variable
   fallback of the range-restriction translation. *)
type cctx = {
  cdom : A.expr;
  restrict : bool;
  mutable fallbacks : int;
  mutable catoms : (string * int) list;
}

(* A compiled subformula: an algebra expression whose columns are named
   by [cols]. Invariant: [cols] lists (a permutation of a subset of) the
   subformula's free variables, without duplicates; a free variable may
   only be missing when the subformula's truth does not depend on it, in
   which case the consumer re-binds it over the domain. *)
type ce = { e : A.expr; cols : string list }

let nullary_true = A.Const (Relation.singleton (Tuple.of_ids [||]))

let unary_rel vs = Relation.of_list (List.map (fun v -> Tuple.of_list [ v ]) vs)

let idx cols x =
  let rec go i = function
    | [] -> invalid_arg ("Fo.compile: internal column lookup failed for " ^ x)
    | y :: rest -> if String.equal x y then i else go (i + 1) rest
  in
  go 0 cols

(* Bind one more output column by active-domain expansion. *)
let pad ctx ce x =
  ctx.fallbacks <- ctx.fallbacks + 1;
  { e = A.Product (ce.e, ctx.cdom); cols = ce.cols @ [ x ] }

let pad_to ctx ce target =
  List.fold_left
    (fun ce v -> if List.mem v ce.cols then ce else pad ctx ce v)
    ce target

let permute ce target =
  if ce.cols = target then ce
  else { e = A.Project (List.map (idx ce.cols) target, ce.e); cols = target }

let restrict_cols ctx e k =
  if not ctx.restrict then e
  else
    let rec go e i =
      if i = k then e else go (A.Semijoin ([ (i, 0) ], e, ctx.cdom)) (i + 1)
    in
    go e 0

let const_singleton ctx x c =
  let base = A.Const (Relation.singleton (Tuple.of_list [ c ])) in
  let e = if ctx.restrict then A.Semijoin ([ (0, 0) ], base, ctx.cdom) else base in
  { e; cols = [ x ] }

let compile_atom ctx p ts =
  ctx.catoms <- (p, List.length ts) :: ctx.catoms;
  let conds = ref [] in
  let seen = ref [] in
  List.iteri
    (fun i t ->
      match t with
      | Cst v -> conds := A.Col_eq_const (i, v) :: !conds
      | Var x -> (
          match List.assoc_opt x !seen with
          | Some j -> conds := A.Col_eq_col (j, i) :: !conds
          | None -> seen := !seen @ [ (x, i) ]))
    ts;
  let e = A.Rel p in
  let e =
    match List.rev !conds with
    | [] -> e
    | c :: cs -> A.Select (List.fold_left (fun a c -> A.And (a, c)) c cs, e)
  in
  let cols = List.map fst !seen in
  let positions = List.map snd !seen in
  (* skip identity projections: distinct variables, no constants *)
  let e =
    if positions = List.init (List.length ts) Fun.id then e
    else A.Project (positions, e)
  in
  { e = restrict_cols ctx e (List.length cols); cols }

let rec flatten_and = function
  | And (a, b) -> flatten_and a @ flatten_and b
  | f -> [ f ]

let rec flatten_or = function
  | Or (a, b) -> flatten_or a @ flatten_or b
  | f -> [ f ]

let rec compile0 ctx f : ce =
  match f with
  | True -> { e = nullary_true; cols = [] }
  | False -> { e = A.Const Relation.empty; cols = [] }
  | Atom (p, ts) -> compile_atom ctx p ts
  | Eq (a, b) -> compile_eq ctx a b
  | And _ -> compile_and ctx (flatten_and f)
  | Or _ ->
      let ces = List.map (compile0 ctx) (flatten_or f) in
      let target =
        List.fold_left
          (fun acc ce ->
            acc @ List.filter (fun v -> not (List.mem v acc)) ce.cols)
          [] ces
      in
      let aligned =
        List.map (fun ce -> permute (pad_to ctx ce target) target) ces
      in
      let e =
        match aligned with
        | [] -> A.Const Relation.empty
        | first :: rest ->
            List.fold_left (fun acc ce -> A.Union (acc, ce.e)) first.e rest
      in
      { e; cols = target }
  | Not g ->
      let cg = compile0 ctx g in
      let k = List.length cg.cols in
      if k = 0 then { e = A.Diff (nullary_true, cg.e); cols = [] }
      else (
        ctx.fallbacks <- ctx.fallbacks + k;
        { e = A.Complement (k, ctx.cdom, cg.e); cols = cg.cols })
  | Exists (xs, g) ->
      let cg = compile0 ctx g in
      let keep = List.filter (fun v -> not (List.mem v xs)) cg.cols in
      let e =
        if List.length keep = List.length cg.cols then cg.e
        else A.Project (List.map (idx cg.cols) keep, cg.e)
      in
      (* a quantified variable absent from the body still ranges over the
         domain: ∃x φ is false on an empty domain even when φ holds *)
      let absent = List.exists (fun x -> not (List.mem x cg.cols)) xs in
      let e = if absent then A.Semijoin ([], e, ctx.cdom) else e in
      { e; cols = keep }
  | Implies _ | Forall _ -> compile0 ctx (nnf f)

and compile_eq ctx a b =
  match (a, b) with
  | Cst c, Cst d ->
      if Value.equal c d then { e = nullary_true; cols = [] }
      else { e = A.Const Relation.empty; cols = [] }
  | Var x, Var y when String.equal x y ->
      ctx.fallbacks <- ctx.fallbacks + 1;
      { e = ctx.cdom; cols = [ x ] }
  | Var x, Var y ->
      ctx.fallbacks <- ctx.fallbacks + 1;
      { e = A.Project ([ 0; 0 ], ctx.cdom); cols = [ x; y ] }
  | Var x, Cst c | Cst c, Var x -> const_singleton ctx x c

(* Natural join: equijoin on the shared columns, then project away the
   right copy of each shared column. When the right operand adds no
   columns at all it is a pure filter on the accumulator, so the plan
   gets a semijoin instead of a join-then-project: a conjunct such as
   [exists Z (G(Y, Z))] filters the accumulator's rows without
   materializing the wider join. Joining with the trivial nullary
   relation is the identity — the physical-equality check recognizes the
   [nullary_true] accumulator that seeds conjunctions. *)
and natural_join acc ce =
  if acc.e == nullary_true then ce
  else if ce.e == nullary_true then acc
  else
    let shared = List.filter (fun v -> List.mem v acc.cols) ce.cols in
    if shared = [] then
      { e = A.Product (acc.e, ce.e); cols = acc.cols @ ce.cols }
    else
      let pairs =
        List.map (fun v -> (idx acc.cols v, idx ce.cols v)) shared
      in
      let keep_right =
        List.filter (fun v -> not (List.mem v acc.cols)) ce.cols
      in
      if keep_right = [] then
        { e = A.Semijoin (pairs, acc.e, ce.e); cols = acc.cols }
      else
        let la = List.length acc.cols in
        let proj =
          List.init la Fun.id
          @ List.map (fun v -> la + idx ce.cols v) keep_right
        in
        {
          e = A.Project (proj, A.Join (pairs, acc.e, ce.e));
          cols = acc.cols @ keep_right;
        }

and compile_and ctx conjs =
  let positives = ref [] and eqs = ref [] and negs = ref [] in
  List.iter
    (fun g ->
      match g with
      | True -> ()
      | Eq (a, b) -> eqs := (a, b) :: !eqs
      | Not h -> negs := h :: !negs
      | g -> positives := g :: !positives)
    conjs;
  let negs = List.rev !negs in
  eqs := List.rev !eqs;
  (* join the positive conjuncts, greedily preferring the candidate
     sharing the most columns with the accumulator (connected joins
     before cartesian products) *)
  let acc =
    ref
      (match List.rev_map (compile0 ctx) !positives with
      | [] -> { e = nullary_true; cols = [] }
      | first :: rest ->
          let rest = ref rest and a = ref first in
          while !rest <> [] do
            let score ce =
              List.length (List.filter (fun v -> List.mem v !a.cols) ce.cols)
            in
            let best =
              List.fold_left
                (fun best ce ->
                  match best with
                  | Some b when score b >= score ce -> best
                  | _ -> Some ce)
                None !rest
            in
            let best = Option.get best in
            rest := List.filter (fun ce -> ce != best) !rest;
            a := natural_join !a best
          done;
          !a)
  in
  let bound x = List.mem x !acc.cols in
  let select c = acc := { !acc with e = A.Select (c, !acc.e) } in
  (* duplicate the column of bound variable [src] as a new column [dst] *)
  let copy_col src dst =
    acc :=
      {
        e =
          A.Project
            ( List.init (List.length !acc.cols) Fun.id @ [ idx !acc.cols src ],
              !acc.e );
        cols = !acc.cols @ [ dst ];
      }
  in
  (* equalities: selections when both sides are bound, column duplication
     when one is, constant generators / domain expansion otherwise *)
  let apply_eq (a, b) =
    match (a, b) with
    | Var x, Var y when String.equal x y ->
        bound x (* x = x: tautology once x is bound, retried otherwise *)
    | Var x, Var y when bound x && bound y ->
        select (A.Col_eq_col (idx !acc.cols x, idx !acc.cols y));
        true
    | Var x, Var y when bound x ->
        copy_col x y;
        true
    | Var x, Var y when bound y ->
        copy_col y x;
        true
    | Var _, Var _ -> false
    | (Var x, Cst c | Cst c, Var x) when bound x ->
        select (A.Col_eq_const (idx !acc.cols x, c));
        true
    | Var x, Cst c | Cst c, Var x ->
        acc := natural_join !acc (const_singleton ctx x c);
        true
    | Cst _, Cst _ -> assert false (* folded by simplify *)
  in
  let rec resolve_eqs () =
    if !eqs <> [] then begin
      let before = List.length !eqs in
      eqs := List.filter (fun eq -> not (apply_eq eq)) !eqs;
      if List.length !eqs = before then begin
        (* only unbound x = x / x = y equalities remain: ground one side *)
        (match List.hd !eqs with
        | Var x, _ | _, Var x -> acc := pad ctx !acc x
        | _ -> assert false);
        resolve_eqs ()
      end
      else resolve_eqs ()
    end
  in
  resolve_eqs ();
  (* negated conjuncts: selections when fully bound, hash antijoins once
     the accumulator binds every column of the negation. A negation
     sharing no column with the accumulator natural-joins the domain
     complement of its operand instead — probed and bulk-built, never a
     materialized acc × dom^k pad; a partially bound one pads only its
     missing columns. Deferring the not-yet-bound negations lets a
     complement join ground them for a plain antijoin. *)
  let negs = List.map (fun g -> (g, ref None)) negs in
  let compiled (g, memo) =
    match !memo with
    | Some cg -> cg
    | None ->
        let cg = compile0 ctx g in
        memo := Some cg;
        cg
  in
  let step ((g, _) as ng) =
    match g with
    | Eq (Var x, Var y) when String.equal x y ->
        (* ¬(x = x) is unsatisfiable *)
        acc := { !acc with e = A.Const Relation.empty };
        true
    | Eq (Var x, Var y) when bound x && bound y ->
        select (A.Not (A.Col_eq_col (idx !acc.cols x, idx !acc.cols y)));
        true
    | (Eq (Var x, Cst c) | Eq (Cst c, Var x)) when bound x ->
        select (A.Not (A.Col_eq_const (idx !acc.cols x, c)));
        true
    | Eq _ -> false
    | _ ->
        let cg = compiled ng in
        if List.for_all bound cg.cols then (
          let pairs =
            List.map (fun v -> (idx !acc.cols v, idx cg.cols v)) cg.cols
          in
          acc := { !acc with e = A.Antijoin (pairs, !acc.e, cg.e) };
          true)
        else false
  in
  let rec resolve pending =
    let pending = List.filter (fun ng -> not (step ng)) pending in
    match pending with
    | [] -> ()
    | ng :: rest ->
        let cg = compiled ng in
        let shared = List.filter bound cg.cols in
        (match (fst ng, shared) with
        | (Eq _, _ | _, _ :: _) ->
            (* partially bound (or a stuck equality): ground the missing
               columns over the domain, then antijoin / select *)
            let missing = List.filter (fun v -> not (bound v)) cg.cols in
            List.iter (fun v -> acc := pad ctx !acc v) missing;
            let pairs =
              List.map (fun v -> (idx !acc.cols v, idx cg.cols v)) cg.cols
            in
            acc := { !acc with e = A.Antijoin (pairs, !acc.e, cg.e) }
        | _, [] ->
            ctx.fallbacks <- ctx.fallbacks + List.length cg.cols;
            acc :=
              natural_join !acc
                {
                  e = A.Complement (List.length cg.cols, ctx.cdom, cg.e);
                  cols = cg.cols;
                });
        resolve rest
  in
  resolve negs;
  !acc

(* --- plans ---------------------------------------------------------------- *)

type plan = {
  pexpr : A.expr;
  patoms : (string * int) list;
  pformula : formula;
  pvars : string list;
  pdom : Value.t list option;
}

let plan_expr p = p.pexpr

let dedup_pairs ps =
  List.fold_left (fun acc p -> if List.mem p acc then acc else p :: acc) [] ps

let build_plan ?(trace = Observe.Trace.null) ?dom f vars =
  let cdom, restrict =
    match dom with
    | Some d -> (A.Const (unary_rel d), true)
    | None -> (
        match constants f with
        | [] -> (A.Adom, false)
        | cs -> (A.Union (A.Adom, A.Const (unary_rel cs)), false))
  in
  let ctx = { cdom; restrict; fallbacks = 0; catoms = [] } in
  let ce = compile0 ctx (simplify (nnf f)) in
  let distinct_vars =
    List.fold_left
      (fun acc v -> if List.mem v acc then acc else acc @ [ v ])
      [] vars
  in
  let ce = pad_to ctx ce distinct_vars in
  let pexpr =
    if ce.cols = vars then ce.e
    else A.Project (List.map (idx ce.cols) vars, ce.e)
  in
  Observe.Trace.incr trace "fo.plan.compiled";
  Observe.Trace.add trace "fo.plan.fallback_vars" ctx.fallbacks;
  {
    pexpr;
    patoms = dedup_pairs ctx.catoms;
    pformula = f;
    pvars = vars;
    pdom = dom;
  }

(* Plan memo: keyed structurally on (formula, output columns, explicit
   domain). Process-global and mutex-guarded — parallel fixpoint workers
   compile through the same cache. *)
let plan_cache : (formula * string list * Value.t list option, plan) Hashtbl.t
    =
  Hashtbl.create 64

let plan_lock = Mutex.create ()
let plan_cache_cap = 512

let compile ?(trace = Observe.Trace.null) ?dom f vars =
  let key = (f, vars, dom) in
  let cached =
    Mutex.lock plan_lock;
    let c = Hashtbl.find_opt plan_cache key in
    Mutex.unlock plan_lock;
    c
  in
  match cached with
  | Some p -> p
  | None ->
      let p = build_plan ~trace ?dom f vars in
      Mutex.lock plan_lock;
      if Hashtbl.length plan_cache >= plan_cache_cap then
        Hashtbl.reset plan_cache;
      Hashtbl.replace plan_cache key p;
      Mutex.unlock plan_lock;
      p

let rec falsify bad f =
  match f with
  | Atom (p, ts) when List.mem (p, List.length ts) bad -> False
  | True | False | Atom _ | Eq _ -> f
  | Not g -> Not (falsify bad g)
  | And (a, b) -> And (falsify bad a, falsify bad b)
  | Or (a, b) -> Or (falsify bad a, falsify bad b)
  | Implies (a, b) -> Implies (falsify bad a, falsify bad b)
  | Exists (xs, g) -> Exists (xs, falsify bad g)
  | Forall (xs, g) -> Forall (xs, falsify bad g)

let run_plan ?(trace = Observe.Trace.null) ?profile inst plan =
  (* Plans are compiled without a schema; an atom whose arity disagrees
     with the instance's relation is uniformly false under the naive
     semantics (no tuple of the wrong arity is ever a member), so such
     atoms are replaced by [False] and the query recompiled. *)
  let bad =
    List.filter
      (fun (p, k) ->
        match Relation.arity (Instance.find p inst) with
        | Some a -> a <> k
        | None -> false)
      plan.patoms
  in
  if bad = [] then A.eval ~trace ?profile inst plan.pexpr
  else
    let p' =
      compile ~trace ?dom:plan.pdom (falsify bad plan.pformula) plan.pvars
    in
    A.eval ~trace ?profile inst p'.pexpr

let eval ?(trace = Observe.Trace.null) ?profile ?dom inst f vars =
  check_covered "eval" (free_vars f) vars;
  run_plan ~trace ?profile inst (compile ~trace ?dom f vars)

let sentence ?(trace = Observe.Trace.null) ?profile ?dom inst f =
  (match free_vars f with
  | [] -> ()
  | missing ->
      invalid_arg
        (Printf.sprintf "Fo.sentence: free variable%s %s"
           (if List.length missing = 1 then "" else "s")
           (String.concat ", " missing)));
  not
    (Relation.is_empty (run_plan ~trace ?profile inst (compile ~trace ?dom f [])))
