open Relational

(* Interned-id vectors key every secondary index and the matcher's
   dedup set: equality is int-array comparison and hashing a short
   avalanching integer mix ({!Tuple.hash_ids}) — no polymorphic hashing,
   no value structure walked on the hot path. *)
module KTbl = Tuple.KTbl
module IdTbl = KTbl

(* The one index-append: cons [t] onto the bucket keyed [k], creating
   the bucket on first use. Every secondary index in this file — main
   database indexes, their incremental maintenance on insert/absorb,
   shard delta indexes and the per-run delta index — appends through
   here. *)
let ix_append ix k t =
  KTbl.replace ix k (t :: (try KTbl.find ix k with Not_found -> []))

module Db = struct
  (* A mutable database view whose secondary indexes survive updates.
     Indexes are memoized per (predicate, constrained positions): a hash
     table from the interned-id vector at those positions to the matching
     tuples. [insert]/[absorb]/[remove] keep every memoized index in sync
     with the instance, so fixpoint engines create one Db per evaluation
     and feed it deltas instead of re-indexing the full instance at every
     stage. The all-tuples scan is the [positions = []] index, so it too
     is maintained incrementally. *)
  (* each memoized index stores its constrained positions both as the
     memo key (list) and as a flat array, so per-tuple key extraction is
     a single [Array.map] with no intermediate list *)
  type memset = unit KTbl.t

  type t = {
    mutable inst : Instance.t;
    pending : (string, Tuple.t list ref) Hashtbl.t;
        (* facts accepted by [absorb_new] but not yet folded into the
           persistent instance: during a fixpoint the memoized indexes
           and membership sets are the authoritative structures, so the
           trie is rebuilt lazily — one bulk build per predicate on the
           next read instead of a path copy per fact per round *)
    indexes :
      (string, (int list, int array * Tuple.t list KTbl.t) Hashtbl.t)
      Hashtbl.t;
    mems : (string, memset) Hashtbl.t;
        (* per-predicate flat hash membership sets, built lazily on first
           probe and maintained incrementally ever after: a fact check is
           O(1) array-hash probes, never a walk of the persistent trie
           (which goes cache-cold once relations outgrow the caches) *)
    trace : Observe.Trace.ctx;
  }

  let of_instance ?(trace = Observe.Trace.null) inst =
    {
      inst;
      pending = Hashtbl.create 4;
      indexes = Hashtbl.create 32;
      mems = Hashtbl.create 8;
      trace;
    }

  let trace db = db.trace

  (* A worker's view of the database: a shallow copy that shares every
     hash table (pending, memoized indexes, membership sets) but carries
     a private trace context, so parallel workers can count without
     contending on one counter table. The view is read-only by
     convention — the sharing means a lazy index/memset build through a
     view would race with its siblings, which is why the parallel
     engines [prewarm] every structure a plan can touch before fanning
     out. The mutable [inst] field is copied by value and does not track
     later coordinator-side flushes — a view must not be used through
     [instance] / [relation]. *)
  let with_trace db trace = { db with trace }

  let flush_pred db p =
    match Hashtbl.find_opt db.pending p with
    | None -> ()
    | Some lst ->
        Hashtbl.remove db.pending p;
        db.inst <-
          Instance.set p
            (Relation.union (Relation.of_distinct !lst) (Instance.find p db.inst))
            db.inst

  let flush db =
    if Hashtbl.length db.pending > 0 then
      List.iter (flush_pred db)
        (Hashtbl.fold (fun p _ acc -> p :: acc) db.pending [])

  let instance db =
    flush db;
    db.inst

  let relation db p =
    flush_pred db p;
    Instance.find p db.inst

  let memset db p =
    match Hashtbl.find_opt db.mems p with
    | Some tb -> tb
    | None ->
        let rel = relation db p in
        let tb = KTbl.create (max 64 (2 * Relation.cardinal rel)) in
        Relation.unordered_iter (fun t -> KTbl.replace tb (Tuple.ids t) ()) rel;
        Hashtbl.add db.mems p tb;
        tb

  let memset_mem = KTbl.mem
  let mem db p tup = KTbl.mem (memset db p) (Tuple.ids tup)

  let mems_add db p t =
    match Hashtbl.find_opt db.mems p with
    | Some tb -> KTbl.replace tb (Tuple.ids t) ()
    | None -> ()

  let mems_remove db p t =
    match Hashtbl.find_opt db.mems p with
    | Some tb -> KTbl.remove tb (Tuple.ids t)
    | None -> ()

  let pred_indexes db p =
    match Hashtbl.find_opt db.indexes p with
    | Some t -> t
    | None ->
        let t = Hashtbl.create 4 in
        Hashtbl.add db.indexes p t;
        t

  let key_of parr t = Array.map (fun i -> Tuple.id t i) parr

  let index db p positions =
    let per_pred = pred_indexes db p in
    match Hashtbl.find_opt per_pred positions with
    | Some (_, ix) ->
        Observe.Trace.incr db.trace "db.index_memo_hits";
        ix
    | None ->
        Observe.Trace.incr db.trace "db.index_builds";
        let parr = Array.of_list positions in
        let ix = KTbl.create 64 in
        Relation.unordered_iter
          (fun t -> ix_append ix (key_of parr t) t)
          (relation db p);
        Hashtbl.add per_pred positions (parr, ix);
        ix

  let lookup_key db p positions key =
    match KTbl.find_opt (index db p positions) key with
    | Some ts -> ts
    | None -> []

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
    lookup_key db p (List.map fst bindings)
      (Array.of_list (List.map (fun (_, v) -> Value.Intern.id v) bindings))

  let insert db p t =
    flush_pred db p;
    if Instance.mem_fact p t db.inst then (
      Observe.Trace.incr db.trace "db.insert_dups";
      false)
    else (
      Observe.Trace.incr db.trace "db.inserts";
      db.inst <- Instance.add_fact p t db.inst;
      mems_add db p t;
      (match Hashtbl.find_opt db.indexes p with
      | None -> ()
      | Some per_pred ->
          Hashtbl.iter
            (fun _ (parr, ix) -> ix_append ix (key_of parr t) t)
            per_pred);
      true)

  (* Deletion must purge the lazy [pending] buffer too: a fact accepted
     by [absorb_new] lives only in [pending]/mems/indexes until the next
     read flushes it into the trie, and leaving it queued would let that
     flush resurrect it after this remove. Purging directly (instead of
     flushing first) also keeps retraction from forcing a full per-pred
     trie rebuild on every call — the deletion hot path of the resident
     server. *)
  let remove db p t =
    let in_pending =
      match Hashtbl.find_opt db.pending p with
      | None -> false
      | Some lst ->
          if List.exists (Tuple.equal t) !lst then (
            lst := List.filter (fun u -> not (Tuple.equal u t)) !lst;
            true)
          else false
    in
    let in_inst = Instance.mem_fact p t db.inst in
    if not (in_pending || in_inst) then false
    else (
      if in_inst then db.inst <- Instance.remove_fact p t db.inst;
      mems_remove db p t;
      (match Hashtbl.find_opt db.indexes p with
      | None -> ()
      | Some per_pred ->
          Hashtbl.iter
            (fun _ (parr, ix) ->
              let k = key_of parr t in
              match KTbl.find_opt ix k with
              | None -> ()
              | Some bucket ->
                  KTbl.replace ix k
                    (List.filter (fun u -> not (Tuple.equal u t)) bucket))
            per_pred);
      true)

  let absorb db delta =
    Instance.fold
      (fun p rel () ->
        match Hashtbl.find_opt db.indexes p with
        | None ->
            (* no memoized index: bulk-union the new tuples *)
            let news =
              Relation.unordered_fold
                (fun t acc -> if mem db p t then acc else t :: acc)
                rel []
            in
            if news <> [] then (
              db.inst <-
                Instance.set p (Relation.add_all news (relation db p)) db.inst;
              List.iter (mems_add db p) news)
        | Some per_pred ->
            (* indexed predicate: one structural union for the relation
               (shared subtrees, no per-tuple instance churn), then append
               the genuinely new tuples to every memoized index *)
            let cur = relation db p in
            let grown = Relation.union rel cur in
            let added = Relation.cardinal grown - Relation.cardinal cur in
            let dups = Relation.cardinal rel - added in
            if added > 0 then Observe.Trace.add db.trace "db.inserts" added;
            if dups > 0 then Observe.Trace.add db.trace "db.insert_dups" dups;
            if added > 0 then (
              db.inst <- Instance.set p grown db.inst;
              Relation.unordered_iter
                (fun t ->
                  if dups = 0 || not (Relation.mem t cur) then (
                    mems_add db p t;
                    Hashtbl.iter
                      (fun _ (parr, ix) -> ix_append ix (key_of parr t) t)
                      per_pred))
                rel))
      delta ()

  (* Bulk insert of facts known to be fresh and pairwise distinct (the
     semi-naive delta, already deduplicated against the database by the
     firing loop): no membership checks, one traversal per structure. *)
  let absorb_new db p news =
    match news with
    | [] -> ()
    | _ ->
        Observe.Trace.add db.trace "db.inserts" (List.length news);
        (* defer the trie: facts queue up in [pending] and the relation
           is bulk-rebuilt on the next read; indexes and membership sets
           (below) stay current, which is all the join loop touches *)
        (match Hashtbl.find_opt db.pending p with
        | Some lst -> lst := List.rev_append news !lst
        | None -> Hashtbl.add db.pending p (ref news));
        (match Hashtbl.find_opt db.mems p with
        | Some tb -> List.iter (fun t -> KTbl.replace tb (Tuple.ids t) ()) news
        | None -> ());
        (match Hashtbl.find_opt db.indexes p with
        | None -> ()
        | Some per_pred ->
            Hashtbl.iter
              (fun _ (parr, ix) ->
                List.iter (fun t -> ix_append ix (key_of parr t) t) news)
              per_pred)
end

(* ------------------------------------------------------------------ *)

(* Shard-owned predicate state for the partitioned parallel fixpoint
   (Slog-style): every fact belongs to exactly one shard, decided by a
   hash of its first-column value id, and each worker domain holds the
   membership sets and per-round delta indexes for the facts it owns.
   Nothing here is shared — one [Shard.t] per worker, mutated only by
   its owner, so freshness checks need no locks and no global merge. *)
module Shard = struct
  type t = {
    shard : int;
    nshards : int;
    mems : (string, unit KTbl.t) Hashtbl.t;
        (* per-predicate membership over the owned partition: seeded
           from the database, extended with every accepted fresh fact —
           complete for owned-tuple freshness checks by construction
           (every fresh fact is routed through its owner) *)
    delta : (string, Tuple.t list) Hashtbl.t;
        (* this shard's slice of the current round's delta *)
    dixes : (string, (int list, Tuple.t list KTbl.t) Hashtbl.t) Hashtbl.t;
        (* (pred, positions) indexes over the delta slices, memoized for
           the round so rules sharing bound positions reuse one build *)
  }

  (* same avalanche story as [Tuple.hash_ids]: interned ids are dense
     small integers, so a plain [mod] would put consecutive vertices in
     consecutive shards — fine for balance, terrible as a hash contract.
     Mix first so ownership is uncorrelated with interning order. *)
  let owner ~nshards ids =
    if nshards = 1 || Array.length ids = 0 then 0
    else begin
      let x = Array.unsafe_get ids 0 in
      let x = (x lxor (x lsr 16)) * 0x45d9f3b in
      let x = (x lxor (x lsr 13)) land max_int in
      x mod nshards
    end

  let create ~nshards ~shard =
    if nshards < 1 || shard < 0 || shard >= nshards then
      invalid_arg "Matcher.Shard.create: shard out of range";
    {
      shard;
      nshards;
      mems = Hashtbl.create 8;
      delta = Hashtbl.create 8;
      dixes = Hashtbl.create 8;
    }

  let id sh = sh.shard
  let owns sh ids = owner ~nshards:sh.nshards ids = sh.shard

  let memset sh p =
    match Hashtbl.find_opt sh.mems p with
    | Some tb -> tb
    | None ->
        let tb = KTbl.create 256 in
        Hashtbl.add sh.mems p tb;
        tb

  let mem sh p ids = KTbl.mem (memset sh p) ids
  let add sh p t = KTbl.replace (memset sh p) (Tuple.ids t) ()

  let seed sh p rel =
    let tb = memset sh p in
    Relation.unordered_iter
      (fun t ->
        let ids = Tuple.ids t in
        if owner ~nshards:sh.nshards ids = sh.shard then KTbl.replace tb ids ())
      rel

  let total sh = Hashtbl.fold (fun _ tb n -> n + KTbl.length tb) sh.mems 0

  let set_delta sh p ts =
    Hashtbl.replace sh.delta p ts;
    Hashtbl.remove sh.dixes p

  let clear_delta sh =
    Hashtbl.reset sh.delta;
    Hashtbl.reset sh.dixes

  let delta sh p =
    match Hashtbl.find_opt sh.delta p with Some ts -> ts | None -> []

  let delta_index sh p positions =
    let per =
      match Hashtbl.find_opt sh.dixes p with
      | Some t -> t
      | None ->
          let t = Hashtbl.create 4 in
          Hashtbl.add sh.dixes p t;
          t
    in
    match Hashtbl.find_opt per positions with
    | Some ix -> ix
    | None ->
        let parr = Array.of_list positions in
        let ix = KTbl.create 64 in
        List.iter
          (fun t -> ix_append ix (Array.map (fun i -> Tuple.id t i) parr) t)
          (delta sh p);
        Hashtbl.add per positions ix;
        ix
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
    }
  | CDomain of int  (** enumerate the slot over the active domain *)

type cfilter =
  | FPos of catom
  | FNeg of catom
  | FEq of cterm * cterm
  | FNeq of cterm * cterm

type prepared = {
  rule : Ast.rule;
  nslots : int;
  csteps : cstep array;
  filters_after : cfilter list array;
      (** [filters_after.(i)] become fully bound once steps [0..i-1] ran;
          index 0 holds the ground filters checked before any step *)
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

let prepare (rule : Ast.rule) =
  let pos_atoms =
    List.filter_map (function Ast.BPos a -> Some a | _ -> None) rule.Ast.body
  in
  let ast_filters =
    List.filter (function Ast.BPos _ -> false | _ -> true) rule.Ast.body
  in
  (* greedy ordering: repeatedly pick the atom sharing the most variables
     with the already-bound set; tie-break on fewer new variables, then on
     original position (stable). *)
  let module SSet = Set.Make (String) in
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
        let bound =
          List.fold_left (fun s v -> SSet.add v s) bound (atom_vars a)
        in
        order bound remaining (a :: acc)
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
  (* compile steps, tracking static boundness; [first_bound.(s)] is the
     1-based step index after which slot [s] is bound (0 = never) *)
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
  let nsteps = Array.length csteps in
  (* compile filters and schedule each at the earliest step after which
     all its variables are bound *)
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
  let filters_after = Array.make (nsteps + 1) [] in
  let undecidable = ref false in
  List.iter
    (fun f ->
      let slots = blit_var_slots f in
      if List.for_all (fun s -> first_bound.(s) > 0) slots then
        let at = List.fold_left (fun m s -> max m first_bound.(s)) 0 slots in
        filters_after.(at) <- filters_after.(at) @ [ cfilter_of f ]
      else if
        (* a filter over never-bound variables is decidable only under the
           ∀-valuations; otherwise it can never pass *)
        not
          (List.for_all
             (fun s ->
               first_bound.(s) > 0
               || List.exists (fun y -> slot y = s) rule.Ast.forall)
             slots)
      then undecidable := true)
    ast_filters;
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
    csteps;
    filters_after;
    body_filters = List.map cfilter_of rule.Ast.body;
    forall_slots;
    undecidable = !undecidable;
    need_dom =
      Array.length forall_slots > 0
      || Array.exists (function CDomain _ -> true | _ -> false) csteps;
    keep;
    cheads;
    cbodies;
  }

let needs_dom prepared = prepared.need_dom

(* ------------------------------------------------------------------ *)

(* Association-list helpers retained for [satisfies] (the nondeterministic
   engines re-check applicability of a grounded rule). *)

let term_value subst = function
  | Ast.Cst v -> Some v
  | Ast.Var x -> List.assoc_opt x subst

let check_filter ?neg_db db subst = function
  | Ast.BNeg a ->
      let vs = atom_vars a in
      if List.for_all (fun v -> List.assoc_opt v subst <> None) vs then
        let ndb = Option.value neg_db ~default:db in
        let _, tup = Ast.ground_atom subst a in
        Some (not (Db.mem ndb a.Ast.pred tup))
      else None
  | Ast.BEq (s, t) -> (
      match (term_value subst s, term_value subst t) with
      | Some a, Some b -> Some (Value.equal a b)
      | _ -> None)
  | Ast.BNeq (s, t) -> (
      match (term_value subst s, term_value subst t) with
      | Some a, Some b -> Some (not (Value.equal a b))
      | _ -> None)
  | Ast.BPos a ->
      let vs = atom_vars a in
      if List.for_all (fun v -> List.assoc_opt v subst <> None) vs then
        let _, tup = Ast.ground_atom subst a in
        Some (Db.mem db a.Ast.pred tup)
      else None

(* Force every lazily-built structure a plan can touch — step indexes,
   membership sets for positive/negative filter probes (the ∀ check
   re-evaluates the whole body, so every body literal counts), and the
   head-dedup memsets — so that read-only workers sharing the database
   never trigger a concurrent build. Called by the parallel engines on
   the coordinator, between barriers. *)
let prewarm ?neg_db prepared db =
  let ndb = Option.value neg_db ~default:db in
  Array.iter
    (function
      | CAtom { apred; key_positions; _ } ->
          ignore (Db.index db apred key_positions : Tuple.t list KTbl.t)
      | CDomain _ -> ())
    prepared.csteps;
  let warm_filter = function
    | FPos ca -> ignore (Db.memset db ca.cpred : unit KTbl.t)
    | FNeg ca -> ignore (Db.memset ndb ca.cpred : unit KTbl.t)
    | FEq _ | FNeq _ -> ()
  in
  Array.iter (List.iter warm_filter) prepared.filters_after;
  List.iter warm_filter prepared.body_filters;
  List.iter
    (fun (_, p, _) -> ignore (Db.memset db p : unit KTbl.t))
    prepared.cheads

(* The join loop shared by {!run} and {!iter_firings}. [consume] is
   called once per (deduped) match with [tval] reading interned ids out
   of the live environment, and [vals] holding the projected id vector
   when dedup forced its construction. Returns the match count. *)
let exec ?delta ?delta_index ?dom ?neg_db prepared db ~consume =
  (if prepared.need_dom && dom = None then
     invalid_arg
       "Matcher.run: rule has domain-bound or \xe2\x88\x80 variables; supply ~dom");
  if prepared.undecidable then 0
  else
    let tr = Db.trace db in
    let tracing = Observe.Trace.enabled tr in
    (* the domain is only consulted by CDomain steps and ∀-rules, both of
       which imply [need_dom]; intern it once per run *)
    let dom_ids =
      if prepared.need_dom then
        List.map Value.Intern.id (Option.value dom ~default:[])
      else []
    in
    let ndb = Option.value neg_db ~default:db in
    (* resolve each step's index table once per call: probes then pay a
       single hash on the key ids, not repeated (pred, positions)
       table hops *)
    let resolve = function
      | CAtom { apred; key_positions; _ } ->
          Some (Db.index db apred key_positions)
      | CDomain _ -> None
    in
    let main_ix = Array.map resolve prepared.csteps in
    (* per-(pred, bound-positions) index over the delta tuples: delta
       candidates are looked up, not scanned; built straight from the
       list, with no intermediate relation or database. A caller holding
       the delta in shard-owned state supplies [delta_index] to reuse
       one memoized build across every rule sharing the positions. *)
    let delta_ix =
      match delta with
      | None -> [||]
      | Some (dpred, dtuples) ->
          Array.map
            (function
              | CAtom { apred; key_positions; _ } when apred = dpred ->
                  Some
                    (match delta_index with
                    | Some f -> f key_positions
                    | None ->
                        let parr = Array.of_list key_positions in
                        let ix = KTbl.create 64 in
                        List.iter
                          (fun t ->
                            ix_append ix
                              (Array.map (fun i -> Tuple.id t i) parr)
                              t)
                          dtuples;
                        ix)
              | _ -> None)
            prepared.csteps
    in
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
    let filters_ok k = List.for_all check_cfilter prepared.filters_after.(k) in
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
    let nsteps = Array.length prepared.csteps in
    (* dedup: different derivations (delta passes, ∀-witnesses) can yield
       the same projected valuation — a hash set over the kept id vectors
       replaces the legacy terminal sort_uniq. *)
    (* Within one pass, distinct derivation paths always differ at some
       bound slot and [keep] covers every bound slot, so emits are already
       unique: the hash set is needed only when several delta passes can
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
            0 prepared.csteps
    in
    let dedup = npasses > 1 || prepared.need_dom in
    let seen = KTbl.create (if dedup then 1024 else 1) in
    let nresults = ref 0 in
    let nkeep = Array.length prepared.keep in
    let emit () =
      if dedup then (
        let vals =
          Array.init nkeep (fun k ->
              let _, s = prepared.keep.(k) in
              let v = env.(s) in
              assert (v >= 0);
              v)
        in
        if not (KTbl.mem seen vals) then (
          KTbl.add seen vals ();
          incr nresults;
          consume ~tval ~vals:(Some vals)))
      else (
        incr nresults;
        consume ~tval ~vals:None)
    in
    let rec go delta_idx i =
      if i = nsteps then (
        if Array.length prepared.forall_slots > 0 then (
          if check_forall () then emit ())
        else emit ())
      else
        match prepared.csteps.(i) with
        | CDomain s ->
            List.iter
              (fun vid ->
                env.(s) <- vid;
                if filters_ok (i + 1) then go delta_idx (i + 1))
              dom_ids;
            env.(s) <- -1
        | CAtom { arity; key_terms; unify; binds; _ } ->
            let key = Array.map tval key_terms in
            let ix = if i = delta_idx then delta_ix.(i) else main_ix.(i) in
            let candidates =
              match ix with
              | None -> []
              | Some ix -> (
                  match KTbl.find_opt ix key with Some ts -> ts | None -> [])
            in
            if tracing then
              Observe.Trace.add tr "matcher.candidates"
                (List.length candidates);
            let n = Array.length unify in
            let rec unify_from tids j =
              j >= n
              ||
              match Array.unsafe_get unify j with
              | UKey -> unify_from tids (j + 1)
              | UBind s ->
                  Array.unsafe_set env s (Array.unsafe_get tids j);
                  unify_from tids (j + 1)
              | UCheckSlot s ->
                  Array.unsafe_get env s = Array.unsafe_get tids j
                  && unify_from tids (j + 1)
            in
            List.iter
              (fun tup ->
                if Tuple.arity tup = arity then (
                  if unify_from (Tuple.ids tup) 0 && filters_ok (i + 1) then
                    go delta_idx (i + 1);
                  Array.iter (fun s -> env.(s) <- -1) binds))
              candidates
    in
    let start delta_idx = if filters_ok 0 then go delta_idx 0 in
    (match delta with
    | None -> start (-1)
    | Some (pred, _) ->
        (* one pass per positive occurrence of [pred] *)
        Array.iteri
          (fun i step ->
            match step with
            | CAtom { apred; _ } when apred = pred -> start i
            | _ -> ())
          prepared.csteps);
    if tracing then (
      let n = !nresults in
      Observe.Trace.incr tr "matcher.runs";
      Observe.Trace.add tr "matcher.substs" n;
      Observe.Trace.gauge_max tr "matcher.substs_max" n);
    !nresults

let run ?delta ?dom ?neg_db prepared db =
  (* the public API takes the delta as a relation; the join loop wants
     the plain tuple list (order is irrelevant: results are sorted) *)
  let delta =
    Option.map
      (fun (p, rel) ->
        (p, Relation.unordered_fold (fun t l -> t :: l) rel []))
      delta
  in
  let nkeep = Array.length prepared.keep in
  let results = ref [] in
  let (_ : int) =
    exec ?delta ?dom ?neg_db prepared db ~consume:(fun ~tval ~vals ->
        let vals =
          match vals with
          | Some v -> v
          | None ->
              Array.init nkeep (fun k -> tval (CVar (snd prepared.keep.(k))))
        in
        results := vals :: !results)
  in
  (* explicit value-order sort (no polymorphic compare): the kept slots
     are name-sorted and identical across results, so ordering by the
     id vectors decoded through [Value.compare] reproduces the legacy
     [List.sort compare] over association lists byte for byte *)
  let cmp_vals a b =
    let n = Array.length a in
    let rec go i =
      if i = n then 0
      else
        let c =
          Value.Intern.compare_ids (Array.unsafe_get a i) (Array.unsafe_get b i)
        in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  in
  List.map
    (fun vals ->
      List.init nkeep (fun k ->
          (fst prepared.keep.(k), Value.Intern.of_id vals.(k))))
    (List.sort cmp_vals !results)

let iter_firings ?delta ?delta_index ?dom ?neg_db prepared db f =
  (* one scratch id array per head template, reused across matches — the
     callback copies it only when it actually retains the fact *)
  let heads =
    List.map
      (fun (pos, pred, cargs) ->
        (pos, pred, cargs, Array.make (Array.length cargs) 0))
      prepared.cheads
  in
  exec ?delta ?delta_index ?dom ?neg_db prepared db ~consume:(fun ~tval ~vals:_ ->
      List.iter
        (fun (pos, pred, cargs, scratch) ->
          for i = 0 to Array.length cargs - 1 do
            Array.unsafe_set scratch i (tval (Array.unsafe_get cargs i))
          done;
          f ~pos pred scratch)
        heads)

let iter_derivations ?delta ?delta_index ?dom ?neg_db prepared db f =
  (* like [iter_firings], but each match also instantiates the rule's
     positive body atoms, so the callback sees the whole firing — head
     fact plus the body facts its annotation multiplies over. All id
     arrays (head and body sides) are scratch, reused across matches:
     callbacks copy what they retain. *)
  let heads =
    List.map
      (fun (pos, pred, cargs) ->
        (pos, pred, cargs, Array.make (Array.length cargs) 0))
      prepared.cheads
  in
  let bodies =
    Array.map
      (fun (pred, cargs) -> (pred, cargs, Array.make (Array.length cargs) 0))
      prepared.cbodies
  in
  let body_view = Array.map (fun (pred, _, scratch) -> (pred, scratch)) bodies in
  exec ?delta ?delta_index ?dom ?neg_db prepared db ~consume:(fun ~tval ~vals:_ ->
      Array.iter
        (fun (_, cargs, scratch) ->
          for i = 0 to Array.length cargs - 1 do
            Array.unsafe_set scratch i (tval (Array.unsafe_get cargs i))
          done)
        bodies;
      List.iter
        (fun (pos, pred, cargs, scratch) ->
          for i = 0 to Array.length cargs - 1 do
            Array.unsafe_set scratch i (tval (Array.unsafe_get cargs i))
          done;
          f ~pos pred scratch body_view)
        heads)

let satisfies db subst blits =
  List.for_all
    (fun l ->
      match check_filter db subst l with
      | Some b -> b
      | None -> raise (Ast.Check_error "Matcher.satisfies: unbound variable"))
    blits

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
