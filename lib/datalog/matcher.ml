open Relational
module Index = Relation.Index
module Trace = Observe.Trace

let k_memo_hits = Trace.key "db.index_memo_hits"
let k_builds = Trace.key "db.index_builds"
let k_inserts = Trace.key "db.inserts"
let k_dups = Trace.key "db.insert_dups"
let k_candidates = Trace.key "matcher.candidates"
let k_member_probes = Trace.key "matcher.member_probes"
let k_delta_first = Trace.key "matcher.delta_first"
let k_runs = Trace.key "matcher.runs"
let k_substs = Trace.key "matcher.substs"
let k_substs_max = Trace.key "matcher.substs_max"

module Db = struct
  (* The engines' only mutable store. Per predicate, a [store] holds the
     facts as one membership set (a {!Tuple.Set}, probed by id vector,
     and walked in its own order by a step that binds no position), and
     the join indexes ({!Relation.Index}) memoized per constrained
     positions, never on none. [insert]/[absorb_new]/[remove] keep them
     in step, so fixpoint engines create one Db per evaluation
     and feed it deltas instead of re-indexing the full instance at
     every stage. A lookup that binds every position reads the
     membership set. The deltas themselves are Dbs too (a round's new
     facts, a DRed cone, a write batch), so an index over a delta is a
     store's memoized index like any other.

     A store starts from the instance's relation: it adopts that
     relation's set, copying nothing. Publishing ([relation],
     [instance]) lends it to a new relation value
     ({!Relation.of_set}). While the set is [lent], the next write
     copies it first, so a relation value never changes. A store for a
     predicate the instance lacks owns a fresh set from the start. Handles
     ({!memset}) hold the store, so they stay valid across the copy. *)
  type store = {
    mutable set : Tuple.Set.t;
    mutable ar : int;  (* the facts' arity, while the set is not empty *)
    mutable lent : Relation.t option;
        (* the relation published for [set] since the last write: the
           one adopted, or the last one published; it shares [set]
           unless it is the empty relation of a fresh store *)
    indexes : (int list, Index.t) Hashtbl.t;
  }

  type memset = store

  type t = {
    mutable inst : Instance.t;
        (* the relation of each predicate without a store, and the last
           published relation of each predicate with one *)
    stores : (string, store) Hashtbl.t;
    trace : Observe.Trace.ctx;
  }

  let of_instance ?(trace = Observe.Trace.null) inst =
    { inst; stores = Hashtbl.create 8; trace }

  let trace db = db.trace

  (* A worker's view of the database: a shallow copy that shares the
     stores but carries a private trace context, so the semi-naive
     loop's workers can count without contending on one counter table.
     The view is read-only by convention — a lazy store or index build
     through a view would race with its siblings, which is why the loop
     [prewarm]s every structure a plan can touch before it fans out to
     more than one worker. *)
  let with_trace db trace = { db with trace }

  (* [rel]'s store: its set adopted, or a fresh small one for the empty
     relation, whose publish is still [rel] *)
  let adopt rel =
    {
      set =
        (if Relation.is_empty rel then Tuple.Set.create 16
         else Relation.set rel);
      ar = Option.value (Relation.arity rel) ~default:0;
      lent = Some rel;
      indexes = Hashtbl.create 4;
    }

  (* [p]'s store, adopted from the instance on first use; finding it
     allocates nothing *)
  let store db p =
    match Hashtbl.find db.stores p with
    | st -> st
    | exception Not_found ->
        let st = adopt (Instance.find p db.inst) in
        Hashtbl.add db.stores p st;
        st

  (* [p]'s store when [p] has a fact; a predicate without one gets no
     store *)
  let memset_opt db p =
    match Hashtbl.find_opt db.stores p with
    | Some st -> if Tuple.Set.length st.set = 0 then None else Some st
    | None ->
        if Relation.is_empty (Instance.find p db.inst) then None
        else Some (store db p)

  (* the predicates with a store or a relation, in name order *)
  let preds db =
    List.sort_uniq String.compare
      (Hashtbl.fold
         (fun p _ acc -> p :: acc)
         db.stores (Instance.names db.inst))

  let iter f db =
    List.iter
      (fun p ->
        Option.iter (fun st -> Tuple.Set.iter (f p) st.set) (memset_opt db p))
      (preds db)

  (* [p]'s relation: the one lent [st]'s set, a new value after a write
     (in a [materialize] span) *)
  let publish db p st =
    match st.lent with
    | Some r -> r
    | None ->
        let make () = Relation.of_set st.set in
        let r =
          if not (Observe.Trace.enabled db.trace) then make ()
          else
            Observe.Trace.with_span db.trace ~kind:"materialize"
              ~fields:
                Observe.Trace.
                  [ fstr "pred" p; fint "rows" (Tuple.Set.length st.set) ]
              p make
        in
        st.lent <- Some r;
        r

  let relation db p =
    match Hashtbl.find_opt db.stores p with
    | None -> Instance.find p db.inst
    | Some st -> publish db p st

  let instance db =
    List.iter
      (fun p ->
        let r = publish db p (Hashtbl.find db.stores p) in
        if Instance.find p db.inst != r then
          db.inst <- Instance.set p r db.inst)
      (List.sort String.compare
         (Hashtbl.fold (fun p _ acc -> p :: acc) db.stores []));
    db.inst

  (* A query-scoped database over [base] whose [shared] predicates are
     [db]'s own stores: an index built through the view lands in [db],
     whose writes then maintain it. *)
  let sharing db shared base =
    let q = of_instance ~trace:db.trace base in
    List.iter (fun p -> Hashtbl.replace q.stores p (store db p)) shared;
    q

  let memset = store
  let memset_mem m ids = Tuple.Set.mem m.set ids
  let memset_mem_hashed m ids h = Tuple.Set.mem_hashed m.set ids h
  let mem db p tup = Tuple.Set.mem_tuple (store db p).set tup
  let arity db p =
    let st = store db p in
    if Tuple.Set.length st.set = 0 then None else Some st.ar

  let total db =
    Hashtbl.fold (fun _ st n -> n + Tuple.Set.length st.set) db.stores 0
    + Instance.fold
        (fun p r n ->
          if Hashtbl.mem db.stores p then n else n + Relation.cardinal r)
        db.inst 0

  (* a column number as the [index] span writes it, made once: a traced
     demand query builds three small indexes *)
  let columns = Array.init 16 string_of_int
  let column i = if i < 16 then columns.(i) else string_of_int i

  (* [st]'s index on [positions], counted into [tr]: a build, in an
     [index] span named after [p], or a reuse — unless [warm], a
     prewarm's own call, which no plan has read yet *)
  let store_index ?(warm = false) tr p st positions =
    match Hashtbl.find_opt st.indexes positions with
    | Some ix ->
        if not warm then Trace.incr_key tr k_memo_hits;
        ix
    | None ->
        Trace.incr_key tr k_builds;
        let build () = Index.of_set (Array.of_list positions) st.set in
        let ix =
          if not (Observe.Trace.enabled tr) then build ()
          else
            let cols = String.concat "," (List.map column positions) in
            Observe.Trace.with_span tr ~kind:"index"
              ~fields:
                Observe.Trace.
                  [
                    fstr "pred" p;
                    fstr "cols" cols;
                    fint "rows" (Tuple.Set.length st.set);
                  ]
              (p ^ "[" ^ cols ^ "]")
              build
        in
        Hashtbl.add st.indexes positions ix;
        ix

  let index db p positions = store_index db.trace p (store db p) positions

  (* The compiled plans below probe indexes with statically-sorted
     positions; this convenience entry point only pays a sort when handed
     unsorted bindings. *)
  let rec bindings_sorted = function
    | [] | [ _ ] -> true
    | (i, _) :: ((j, _) :: _ as rest) -> i <= j && bindings_sorted rest

  let lookup db p bindings =
    let bindings =
      if bindings_sorted bindings then bindings
      else List.sort (fun (i, _) (j, _) -> Int.compare i j) bindings
    in
    let key =
      Array.of_list (List.map (fun (_, v) -> Value.Intern.id v) bindings)
    in
    (* bound on exactly the positions [0 .. arity - 1]: a membership test *)
    let rec full ar i = function
      | [] -> i = ar
      | (j, _) :: rest -> i = j && full ar (i + 1) rest
    in
    match arity db p with
    | None -> []
    | Some ar when full ar 0 bindings -> (
        match Tuple.Set.find_opt (store db p).set key with
        | Some t -> [ t ]
        | None -> [])
    | Some _ when bindings = [] -> Tuple.Set.to_list (store db p).set
    | Some _ ->
        Index.to_list
          (Index.find (index db p (List.map fst bindings)) (Array.get key))

  (* [st] ready for a write: a set a relation shares is copied first *)
  let writable st =
    match st.lent with
    | None -> ()
    | Some r ->
        if Relation.set r == st.set then st.set <- Tuple.Set.copy st.set;
        st.lent <- None

  let check_arity st t =
    if Tuple.Set.length st.set > 0 && Tuple.arity t <> st.ar then
      invalid_arg
        (Printf.sprintf
           "Relation: arity mismatch (relation has arity %d, tuple has %d)"
           st.ar (Tuple.arity t))

  (* [t] joins [st]'s set, unless there, and its indexes: one probe of
     the set (two while it is lent, which only a new fact copies), and
     no closure while [st] has no index *)
  let memset_add st t =
    check_arity st t;
    if Option.is_some st.lent && Tuple.Set.mem_tuple st.set t then false
    else (
      writable st;
      Tuple.Set.add st.set t
      && (st.ar <- Tuple.arity t;
          if Hashtbl.length st.indexes > 0 then
            Hashtbl.iter (fun _ ix -> Index.add ix t) st.indexes;
          true))

  let insert db p t =
    let fresh = memset_add (store db p) t in
    Trace.incr_key db.trace (if fresh then k_inserts else k_dups);
    fresh

  let remove db p t =
    let st = store db p in
    if not (Tuple.Set.mem_tuple st.set t) then false
    else (
      writable st;
      ignore (Tuple.Set.remove st.set t);
      Hashtbl.iter (fun _ ix -> Index.remove ix t) st.indexes;
      true)

  (* Bulk insert of facts known to be fresh (the semi-naive delta,
     already deduplicated against the database by the firing loop): no
     membership checks, one traversal per structure. *)
  let absorb_new db delta =
    List.iter
      (fun p ->
        match memset_opt delta p with
        | None -> ()
        | Some d ->
            if Trace.enabled db.trace then
              Trace.add_key db.trace k_inserts (Tuple.Set.length d.set);
            let st = store db p in
            writable st;
            st.ar <- d.ar;
            Tuple.Set.iter (fun t -> ignore (Tuple.Set.add st.set t)) d.set;
            Hashtbl.iter (fun _ ix -> Tuple.Set.iter (Index.add ix) d.set)
              st.indexes)
      (preds delta)
end

(* ------------------------------------------------------------------ *)

(* Compiled plans: variables are mapped to integer slots at [prepare]
   time, and constants to interned ids, so the join loop unifies ids into
   one mutable [int array] (-1 = unbound) — every comparison on the hot
   path is a machine-integer compare. For every step the set of
   already-bound argument positions is known statically (the step order
   is fixed), so each atom carries a precomputed index key and the
   remaining positions carry their unification ops. *)

type cterm = CCst of int  (** interned constant id *) | CVar of int

type catom = { cpred : string; cargs : cterm array }

type unify_op =
  | UKey  (** position is part of the lookup key: already matched *)
  | UBind of int  (** first occurrence of an unbound variable: bind slot *)
  | UCheckSlot of int  (** repeated unbound variable within the atom *)

type cstep =
  | CAtom of {
      apred : string;
      arity : int;
      key_positions : int list;  (** statically-bound positions, ascending *)
      key_terms : cterm array;  (** aligned with [key_positions] *)
      unify : unify_op array;  (** one op per argument position *)
      binds : int array;  (** slots first bound by this step *)
      member : bool;
          (** every position is bound: the step is a membership test,
              answered by the predicate's membership set, not an index *)
    }
  | CDomain of int  (** enumerate the slot over the active domain *)

type cfilter =
  | FPos of catom
  | FNeg of catom
  | FEq of cterm * cterm
  | FNeq of cterm * cterm

(* One compiled join order: its steps and the filter schedule that
   follows from it. *)
type plan = {
  csteps : cstep array;
  filters_after : cfilter list array;
      (** [filters_after.(i)] become fully bound once steps [0..i-1] ran;
          index 0 holds the ground filters checked before any step *)
}

type prepared = {
  rule : Ast.rule;
  nslots : int;
  base : plan;  (** the greedy order *)
  delta_first : plan array;
      (** [delta_first.(i)]: the positive atom of [base]'s step [i] moved
          first and the rest in greedy order after it — where a delta
          pass on that atom may start instead. Entry 0 is [base]. *)
  body_filters : cfilter list;
      (** the whole body, for re-evaluation under ∀-valuations *)
  forall_slots : int array;
  undecidable : bool;
      (** some non-∀ filter can never be fully bound (unsafe rule):
          no substitution is ever produced, matching the legacy matcher *)
  need_dom : bool;
  keep : (string * int) array;  (** output projection, name-sorted *)
  cheads : (bool * string * cterm array) list;
      (** compiled head templates (polarity, pred, args); ⊥ heads are
          omitted — the engines that use the fast firing path ignore them *)
  cbodies : (string * cterm array) array;
      (** compiled positive body atoms in original body order — the
          derivation enumeration ({!iter_derivations}) instantiates
          these alongside the heads *)
}

let atom_vars (a : Ast.atom) =
  List.filter_map
    (function Ast.Var x -> Some x | Ast.Cst _ -> None)
    a.Ast.args

module SSet = Set.Make (String)

(* greedy ordering: repeatedly pick the atom sharing the most variables
   with the already-bound set; tie-break on fewer new variables, then on
   original position (stable). *)
let rec order bound remaining acc =
  match remaining with
  | [] -> List.rev acc
  | _ ->
      let score a =
        let vs = atom_vars a in
        let b = List.length (List.filter (fun v -> SSet.mem v bound) vs) in
        let fresh =
          List.length
            (List.sort_uniq String.compare
               (List.filter (fun v -> not (SSet.mem v bound)) vs))
        in
        (b, -fresh)
      in
      let best =
        List.fold_left
          (fun best a ->
            match best with
            | None -> Some (a, score a)
            | Some (_, sb) when score a > sb -> Some (a, score a)
            | some -> some)
          None remaining
      in
      let a, _ = Option.get best in
      let remaining = List.filter (fun x -> x != a) remaining in
      let bound = List.fold_left (fun s v -> SSet.add v s) bound (atom_vars a) in
      order bound remaining (a :: acc)

let prepare (rule : Ast.rule) =
  let pos_atoms =
    List.filter_map (function Ast.BPos a -> Some a | _ -> None) rule.Ast.body
  in
  let ast_filters =
    List.filter (function Ast.BPos _ -> false | _ -> true) rule.Ast.body
  in
  let ordered_atoms = order SSet.empty pos_atoms [] in
  let bound_by_atoms = List.concat_map atom_vars ordered_atoms in
  (* body variables not bound by any positive atom range over the domain
     (paper: instantiations valuate into adom(P, K)); ∀-variables are
     handled separately, and head-only variables are never enumerated —
     they are either rejected by the safety checks or freshly invented
     (Datalog¬new). *)
  let needed =
    Ast.body_vars rule
    |> List.filter (fun v ->
           (not (List.mem v bound_by_atoms))
           && not (List.mem v rule.Ast.forall))
  in
  (* slot assignment: every variable of the rule gets a slot *)
  let all_vars =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun x ->
        if Hashtbl.mem seen x then false
        else (
          Hashtbl.add seen x ();
          true))
      (Ast.rule_vars rule @ Ast.body_vars rule @ rule.Ast.forall)
  in
  let nslots = List.length all_vars in
  let slot_tbl = Hashtbl.create 16 in
  List.iteri (fun i x -> Hashtbl.replace slot_tbl x i) all_vars;
  let slot x = Hashtbl.find slot_tbl x in
  let cterm_of = function
    | Ast.Cst v -> CCst (Value.Intern.id v)
    | Ast.Var x -> CVar (slot x)
  in
  let catom_of (a : Ast.atom) =
    { cpred = a.Ast.pred; cargs = Array.of_list (List.map cterm_of a.Ast.args) }
  in
  let cfilter_of = function
    | Ast.BPos a -> FPos (catom_of a)
    | Ast.BNeg a -> FNeg (catom_of a)
    | Ast.BEq (s, t) -> FEq (cterm_of s, cterm_of t)
    | Ast.BNeq (s, t) -> FNeq (cterm_of s, cterm_of t)
  in
  let blit_var_slots l =
    let terms =
      match l with
      | Ast.BPos a | Ast.BNeg a -> a.Ast.args
      | Ast.BEq (s, t) | Ast.BNeq (s, t) -> [ s; t ]
    in
    List.filter_map
      (function Ast.Var x -> Some (slot x) | Ast.Cst _ -> None)
      terms
  in
  (* compile one atom order, tracking static boundness;
     [first_bound.(s)] is the 1-based step index after which slot [s] is
     bound (0 = never). Every order binds the same slots, so the
     boundness-derived facts below are read off the greedy one. *)
  let compile ordered_atoms =
    let bound = Array.make (max nslots 1) false in
    let first_bound = Array.make (max nslots 1) 0 in
    let step_no = ref 0 in
    let compile_atom (a : Ast.atom) =
      incr step_no;
      let args = Array.of_list a.Ast.args in
      let n = Array.length args in
      let keyspec = ref [] in
      let unify = Array.make n UKey in
      let binds = ref [] in
      Array.iteri
        (fun i t ->
          match t with
          | Ast.Cst v -> keyspec := (i, CCst (Value.Intern.id v)) :: !keyspec
          | Ast.Var x ->
              let s = slot x in
              if bound.(s) then keyspec := (i, CVar s) :: !keyspec
              else if List.mem s !binds then unify.(i) <- UCheckSlot s
              else (
                binds := s :: !binds;
                unify.(i) <- UBind s))
        args;
      List.iter
        (fun s ->
          bound.(s) <- true;
          first_bound.(s) <- !step_no)
        !binds;
      let spec = List.rev !keyspec in
      CAtom
        {
          apred = a.Ast.pred;
          arity = n;
          key_positions = List.map fst spec;
          key_terms = Array.of_list (List.map snd spec);
          unify;
          binds = Array.of_list (List.rev !binds);
          member = List.length spec = n;
        }
    in
    let atom_steps = List.map compile_atom ordered_atoms in
    let domain_steps =
      List.map
        (fun x ->
          incr step_no;
          let s = slot x in
          bound.(s) <- true;
          first_bound.(s) <- !step_no;
          CDomain s)
        needed
    in
    let csteps = Array.of_list (atom_steps @ domain_steps) in
    (* schedule each filter at the earliest step after which all its
       variables are bound *)
    let filters_after = Array.make (Array.length csteps + 1) [] in
    List.iter
      (fun f ->
        let slots = blit_var_slots f in
        if List.for_all (fun s -> first_bound.(s) > 0) slots then
          let at = List.fold_left (fun m s -> max m first_bound.(s)) 0 slots in
          filters_after.(at) <- filters_after.(at) @ [ cfilter_of f ])
      ast_filters;
    ({ csteps; filters_after }, first_bound)
  in
  let base, first_bound = compile ordered_atoms in
  let delta_first =
    Array.of_list
      (List.mapi
         (fun i a ->
           if i = 0 then base
           else
             let rest = List.filter (fun x -> x != a) ordered_atoms in
             fst
               (compile
                  (a :: order (SSet.of_list (atom_vars a)) rest [])))
         ordered_atoms)
  in
  (* a filter over never-bound variables is decidable only under the
     ∀-valuations; otherwise it can never pass *)
  let undecidable =
    List.exists
      (fun f ->
        List.exists
          (fun s ->
            first_bound.(s) = 0
            && not (List.exists (fun y -> slot y = s) rule.Ast.forall))
          (blit_var_slots f))
      ast_filters
  in
  let keep =
    all_vars
    |> List.filter (fun x ->
           first_bound.(slot x) > 0 && not (List.mem x rule.Ast.forall))
    |> List.sort String.compare
    |> List.map (fun x -> (x, slot x))
    |> Array.of_list
  in
  let forall_slots = Array.of_list (List.map slot rule.Ast.forall) in
  let cheads =
    List.filter_map
      (function
        | Ast.HBottom -> None
        | Ast.HPos a ->
            Some
              (true, a.Ast.pred, Array.of_list (List.map cterm_of a.Ast.args))
        | Ast.HNeg a ->
            Some
              (false, a.Ast.pred, Array.of_list (List.map cterm_of a.Ast.args)))
      rule.Ast.head
  in
  let cbodies =
    Array.of_list
      (List.map
         (fun a ->
           let ca = catom_of a in
           (ca.cpred, ca.cargs))
         pos_atoms)
  in
  {
    rule;
    nslots;
    base;
    delta_first;
    body_filters = List.map cfilter_of rule.Ast.body;
    forall_slots;
    undecidable;
    need_dom =
      Array.length forall_slots > 0
      || Array.exists (function CDomain _ -> true | _ -> false) base.csteps;
    keep;
    cheads;
    cbodies;
  }

let needs_dom prepared = prepared.need_dom

(* ------------------------------------------------------------------ *)

(* Where a step's candidates come from, in the store [st] of its
   predicate (or of the delta standing for it): the membership set for a
   step that binds every position, the set walked in order for a step
   that binds none, else the store's index on the bound positions, built
   on first use and counted into [tr]. A walk settles a stale order
   ({!Tuple.Set.settle}) only when it runs. *)
type source =
  | Member of Db.memset
  | Scan of Db.memset
  | Indexed of Index.t
  | Unresolved

let store_source ?warm tr (st : Db.memset) = function
  | CAtom { member = true; _ } -> Member st
  | CAtom { key_positions = []; _ } -> Scan st
  | CAtom { apred; key_positions; _ } ->
      Indexed (Db.store_index ?warm tr apred st key_positions)
  | CDomain _ -> Unresolved

let source ?warm db = function
  | CAtom { apred; _ } as step ->
      store_source ?warm (Db.trace db) (Db.memset db apred) step
  | CDomain _ -> Unresolved

(* Force every lazily-built structure a plan can touch — step sources
   of the greedy plan and, after its delta step (which reads the delta,
   never the database), of every delta-first plan that starts from one
   of [delta_preds] (no other can run), with the order of every
   set a keyless step walks settled, membership sets for
   positive/negative filter probes (the ∀ check re-evaluates the whole
   body, so every body literal counts), and the head-dedup memsets — so
   that read-only workers sharing the database never trigger a
   concurrent build. Called by the semi-naive loop before it runs a
   fixpoint on more than one worker. Its reuse of an index counts no
   [db.index_memo_hits]: only a plan's reads do. *)
let prewarm ?neg_db ~delta_preds prepared db =
  let ndb = Option.value neg_db ~default:db in
  let warm_steps from plan =
    Array.iteri
      (fun j step ->
        if j >= from then
          match source ~warm:true db step with
          | Scan m -> Tuple.Set.settle m.set
          | Member _ | Indexed _ | Unresolved -> ())
      plan.csteps
  in
  warm_steps 0 prepared.base;
  Array.iteri
    (fun i plan ->
      match plan.csteps.(0) with
      | CAtom { apred; _ } when i > 0 && List.mem apred delta_preds ->
          warm_steps 1 plan
      | CAtom _ | CDomain _ -> ())
    prepared.delta_first;
  let warm_filter = function
    | FPos ca -> ignore (Db.memset db ca.cpred : Db.memset)
    | FNeg ca -> ignore (Db.memset ndb ca.cpred : Db.memset)
    | FEq _ | FNeq _ -> ()
  in
  List.iter warm_filter prepared.body_filters;
  List.iter
    (fun (_, p, _) -> ignore (Db.memset db p : Db.memset))
    prepared.cheads

(* The join loop shared by {!run} and {!iter_firings}. [consume] is
   called once per (deduped) match with [tval] reading interned ids out
   of the live environment. Returns the match count. *)
let exec ?delta ?dom ?neg_db prepared db ~consume =
  (if prepared.need_dom && dom = None then
     invalid_arg
       "Matcher.run: rule has domain-bound or \xe2\x88\x80 variables; supply ~dom");
  if prepared.undecidable then 0
  else
    let tr = Db.trace db in
    let tracing = Trace.enabled tr in
    (* per-run counts, flushed into [tr] once at the end: [scans] counts
       the candidate sources read, so a run that read only empty ones
       still reports its zero *)
    let cands = ref 0 and scans = ref 0 and probes = ref 0 in
    let delta_firsts = ref 0 in
    (* the domain is only consulted by CDomain steps and ∀-rules, both of
       which imply [need_dom]; intern it once per run *)
    let dom_ids =
      if prepared.need_dom then
        List.map Value.Intern.id (Option.value dom ~default:[])
      else []
    in
    let ndb = Option.value neg_db ~default:db in
    (* resolve each step's source once per plan run: probes then pay a
       single hash on the key ids, not repeated (pred, positions) table
       hops. Steps before [from] are not resolved. *)
    let resolve from plan =
      Array.mapi
        (fun j step -> if j >= from then source db step else Unresolved)
        plan.csteps
    in
    let main_src = resolve 0 prepared.base in
    (* the environment: one interned id per slot, -1 = unbound *)
    let env = Array.make (max prepared.nslots 1) (-1) in
    let tval = function
      | CCst id -> id
      | CVar s ->
          let v = Array.unsafe_get env s in
          assert (v >= 0);
          v
    in
    let check_cfilter = function
      | FPos ca -> Db.memset_mem (Db.memset db ca.cpred) (Array.map tval ca.cargs)
      | FNeg ca ->
          not (Db.memset_mem (Db.memset ndb ca.cpred) (Array.map tval ca.cargs))
      | FEq (s, t) -> tval s = tval t
      | FNeq (s, t) -> tval s <> tval t
    in
    (* ∀-rules: re-evaluate the whole body for every valuation of the
       ∀-variables over the domain (paper, §5.2) *)
    let check_forall () =
      let nf = Array.length prepared.forall_slots in
      let rec enum i =
        if i = nf then List.for_all check_cfilter prepared.body_filters
        else
          let s = prepared.forall_slots.(i) in
          List.for_all
            (fun vid ->
              env.(s) <- vid;
              enum (i + 1))
            dom_ids
      in
      enum 0
    in
    (* dedup: different derivations (delta passes, ∀-witnesses) can yield
       the same projected valuation, so the kept slots' ids are read into
       a scratch buffer and only a new member of [seen] is consumed.
       Within one pass, distinct derivation paths always differ at some
       bound slot and [keep] covers every bound slot, so emits are already
       unique: the set is needed only when several delta passes can
       re-find the same valuation, or when a caller-supplied domain list
       might contain repeats. *)
    let npasses =
      match delta with
      | None -> 0
      | Some (pred, _) ->
          Array.fold_left
            (fun n s ->
              match s with
              | CAtom { apred; _ } when apred = pred -> n + 1
              | _ -> n)
            0 prepared.base.csteps
    in
    let dedup = npasses > 1 || prepared.need_dom in
    let nkeep = Array.length prepared.keep in
    let seen = Tuple.Set.create (if dedup then 512 else 0) in
    let vals = Array.make nkeep 0 in
    let nresults = ref 0 in
    let emit () =
      if dedup then (
        for k = 0 to nkeep - 1 do
          let v = env.(snd prepared.keep.(k)) in
          assert (v >= 0);
          vals.(k) <- v
        done;
        if Tuple.Set.add_ids seen vals then (
          incr nresults;
          consume ~tval))
      else (
        incr nresults;
        consume ~tval)
    in
    (* the key of a step's bound positions, read from the environment *)
    let key_of = function
      | CAtom { key_terms; _ } -> fun j -> tval (Array.unsafe_get key_terms j)
      | CDomain _ -> fun _ -> -1
    in
    let is_member m = function
      | CAtom { key_terms; _ } -> Db.memset_mem m (Array.map tval key_terms)
      | CDomain _ -> false
    in
    (* a step's candidates, read in place: an index bucket or a set *)
    let scan_bucket b visit =
      if tracing then (
        cands := !cands + Index.size b;
        Stdlib.incr scans);
      Index.iter visit b
    in
    let scan_set (m : Db.memset) visit =
      if tracing then (
        cands := !cands + Tuple.Set.length m.set;
        Stdlib.incr scans);
      Tuple.Set.iter visit m.set
    in
    (* one pass over [plan], whose sources are [srcs] *)
    let run_plan plan srcs =
      let csteps = plan.csteps in
      let nsteps = Array.length csteps in
      let keys = Array.map key_of csteps in
      let filters_ok k = List.for_all check_cfilter plan.filters_after.(k) in
      let rec go i =
        if i = nsteps then (
          if Array.length prepared.forall_slots > 0 then (
            if check_forall () then emit ())
          else emit ())
        else
          match (csteps.(i), srcs.(i)) with
          | CDomain s, _ ->
              List.iter
                (fun vid ->
                  env.(s) <- vid;
                  if filters_ok (i + 1) then go (i + 1))
                dom_ids;
              env.(s) <- -1
          | (CAtom _ as step), Member m ->
              (* every position bound: nothing to unify *)
              let hit = is_member m step in
              if tracing then (
                Stdlib.incr probes;
                if hit then (
                  Stdlib.incr cands;
                  Stdlib.incr scans));
              if hit && filters_ok (i + 1) then go (i + 1)
          | CAtom { arity; unify; binds; _ }, src ->
              let n = Array.length unify in
              (* reads [tup]'s ids in place: its arity is checked *)
              let rec unify_from tup j =
                j >= n
                ||
                match Array.unsafe_get unify j with
                | UKey -> unify_from tup (j + 1)
                | UBind s ->
                    Array.unsafe_set env s (Tuple.unsafe_id tup j);
                    unify_from tup (j + 1)
                | UCheckSlot s ->
                    Array.unsafe_get env s = Tuple.unsafe_id tup j
                    && unify_from tup (j + 1)
              in
              let visit tup =
                if Tuple.arity tup = arity then (
                  if unify_from tup 0 && filters_ok (i + 1) then
                    go (i + 1);
                  Array.iter (fun s -> env.(s) <- -1) binds)
              in
              match src with
              | Indexed ix -> scan_bucket (Index.find ix keys.(i)) visit
              | Scan m -> scan_set m visit
              | Member _ | Unresolved -> ()
      in
      if filters_ok 0 then go 0
    in
    let flush () =
      if tracing then (
        if !scans > 0 then Trace.add_key tr k_candidates !cands;
        if !probes > 0 then Trace.add_key tr k_member_probes !probes;
        if !delta_firsts > 0 then Trace.add_key tr k_delta_first !delta_firsts)
    in
    (* one pass, or one per occurrence of the delta's predicate *)
    let passes () =
      match delta with
      | None -> run_plan prepared.base main_src
      | Some (dpred, (dst : Db.memset)) ->
          (* [srcs] with the delta's store read at step [i]: its source is
             resolved as any other step's, and its index memoized on the
             delta's store, uncounted *)
          let ndelta = Tuple.Set.length dst.set in
          let with_delta srcs i step =
            srcs.(i) <- store_source Trace.null dst step;
            srcs
          in
          (* a pass on a later occurrence starts from the delta when the
             delta is smaller than what the greedy plan's first step would
             enumerate: that step's bucket for its constant key, or at most
             the one fact of a membership test *)
          let delta_is_smaller () =
            let first = prepared.base.csteps.(0) in
            match main_src.(0) with
            | Indexed ix -> Index.size (Index.find ix (key_of first)) > ndelta
            | Scan m -> Tuple.Set.length m.set > ndelta
            | Member m -> ndelta = 0 && is_member m first
            | Unresolved -> false
          in
          (* one pass per positive occurrence of [dpred] *)
          Array.iteri
            (fun i step ->
              match step with
              | CAtom { apred; _ } when apred = dpred ->
                  if i > 0 && delta_is_smaller () then (
                    let plan = prepared.delta_first.(i) in
                    if tracing then Stdlib.incr delta_firsts;
                    run_plan plan
                      (with_delta (resolve 1 plan) 0 plan.csteps.(0)))
                  else
                    run_plan prepared.base
                      (with_delta (Array.copy main_src) i step)
              | _ -> ())
            prepared.base.csteps
    in
    (match passes () with
    | () -> flush ()
    | exception e ->
        flush ();
        raise e);
    if tracing then (
      let n = !nresults in
      Trace.incr_key tr k_runs;
      Trace.add_key tr k_substs n;
      Trace.max_key tr k_substs_max n);
    !nresults

let run ?dom ?neg_db prepared db =
  let nkeep = Array.length prepared.keep in
  let results = ref [] in
  let (_ : int) =
    exec ?dom ?neg_db prepared db ~consume:(fun ~tval ->
        results :=
          Array.init nkeep (fun k -> tval (CVar (snd prepared.keep.(k))))
          :: !results)
  in
  (* value-order sort of the id vectors: the kept slots are name-sorted
     and identical across results, so it reproduces the legacy
     [List.sort compare] over association lists byte for byte *)
  List.map
    (fun vals ->
      List.init nkeep (fun k ->
          (fst prepared.keep.(k), Value.Intern.of_id vals.(k))))
    (Tuple.rank_sort nkeep Array.unsafe_get !results)

(* One scratch id array per compiled atom, reused across matches — the
   callback copies it only when it actually retains the fact — and its
   grounding under the match [tval] reads. *)
let scratch cargs = Array.make (Array.length cargs) 0

let ground tval cargs ids =
  for i = 0 to Array.length cargs - 1 do
    Array.unsafe_set ids i (tval (Array.unsafe_get cargs i))
  done

let iter_heads ?delta ?dom ?neg_db prepared db ~before f =
  let heads =
    List.map (fun (pos, pred, cargs) -> (pos, pred, cargs, scratch cargs))
      prepared.cheads
  in
  exec ?delta ?dom ?neg_db prepared db ~consume:(fun ~tval ->
      before tval;
      List.iter
        (fun (pos, pred, cargs, ids) ->
          ground tval cargs ids;
          f ~pos pred ids)
        heads)

let iter_firings ?delta ?dom ?neg_db prepared db f =
  iter_heads ?delta ?dom ?neg_db prepared db ~before:ignore f

(* like [iter_firings], but each match also grounds the rule's positive
   body atoms, so the callback sees the whole firing — head fact plus
   the body facts its annotation multiplies over *)
let iter_derivations ?dom ?neg_db prepared db f =
  let bodies =
    Array.map (fun (pred, cargs) -> (pred, scratch cargs)) prepared.cbodies
  in
  iter_heads ?dom ?neg_db prepared db
    ~before:(fun tval ->
      Array.iteri
        (fun b (_, cargs) -> ground tval cargs (snd bodies.(b)))
        prepared.cbodies)
    (fun ~pos pred ids -> f ~pos pred ids bodies)

let instantiate_heads subst heads =
  let bottom = ref false in
  let facts =
    List.filter_map
      (fun h ->
        match h with
        | Ast.HBottom ->
            bottom := true;
            None
        | Ast.HPos a ->
            let p, t = Ast.ground_atom subst a in
            Some (true, p, t)
        | Ast.HNeg a ->
            let p, t = Ast.ground_atom subst a in
            Some (false, p, t))
      heads
  in
  (!bottom, facts)
