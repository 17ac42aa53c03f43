open Relational
module Trace = Observe.Trace

let k_rounds = Trace.key "fixpoint.rounds"
let k_delta_max = Trace.key "fixpoint.delta_max"
let k_delta_total = Trace.key "fixpoint.delta_total"
let k_derived = Trace.key "fixpoint.tuples_derived"
let k_deduped = Trace.key "fixpoint.tuples_deduped"
let k_tasks = Trace.key "par.tasks"
let k_task = Trace.key "par.task"
let k_dred_batches = Trace.key "dred.batches"
let k_overdeleted = Trace.key "dred.overdeleted"
let k_rederived = Trace.key "dred.rederived"
let k_cone_rounds = Trace.key "dred.cone_rounds"

(* Union of two lists sorted by [Value.compare] without duplicates. *)
let merge_sorted a b =
  let rec go acc a b =
    match (a, b) with
    | [], l | l, [] -> List.rev_append acc l
    | x :: a', y :: b' ->
        let c = Value.compare x y in
        if c < 0 then go (x :: acc) a' b
        else if c > 0 then go (y :: acc) a b'
        else go (x :: acc) a' b'
  in
  go [] a b

(* A range-restricted plan never reads the domain, so most programs skip
   the scan of K entirely. When a plan does read it, the domain is
   computed once, under an "adom" span. *)
let program_dom ?(trace = Observe.Trace.null) p plans inst =
  if not (List.exists Matcher.needs_dom plans) then []
  else (
    Observe.Trace.open_span trace ~kind:"adom" "adom(P, K)";
    let dom = merge_sorted (Ast.adom p) (Instance.adom inst) in
    Observe.Trace.close_span trace
      ~fields:[ Observe.Trace.fint "values" (List.length dom) ]
      ();
    dom)

let db_dom ?trace p plans db =
  if List.exists Matcher.needs_dom plans then
    program_dom ?trace p plans (Matcher.Db.instance db)
  else []

(* Stable per-rule counter label: position in the prepared program plus
   the head predicate(s) — "r3:T". Firing counters are reported as
   "rule_firings.<label>". *)
let rule_label i (rule : Ast.rule) =
  let heads =
    String.concat "+"
      (List.sort_uniq String.compare
         (List.filter_map
            (fun h -> Option.map (fun a -> a.Ast.pred) (Ast.atom_of_hlit h))
            rule.Ast.head))
  in
  Printf.sprintf "r%d:%s" i heads

(* a rule, its plan and the key of its firing counter *)
type entry = { rule : Ast.rule; plan : Matcher.prepared; firings : Trace.key }
type prepared = entry list

let prepare p =
  List.mapi
    (fun i rule ->
      {
        rule;
        plan = Matcher.prepare rule;
        firings = Trace.key ("rule_firings." ^ rule_label i rule);
      })
    p

let rules p = List.map (fun e -> (e.rule, e.plan)) p
let plans p = List.map (fun e -> e.plan) p

(* Rules reaching this path have passed the safety checks, so every head
   variable is body-bound and the interned firing fast path applies:
   matches ground the compiled head templates directly, with no
   substitution lists and no value decode/re-intern round trip. *)
let fire_rule db dom e k =
  let n =
    Matcher.iter_firings ~dom e.plan db (fun ~pos pred ids ->
        k pos pred (Tuple.of_ids ids))
  in
  Trace.add_key (Matcher.Db.trace db) e.firings n

(* The consequences accumulate in a fresh Db: one set per predicate,
   published once. *)
let consequences_db prepared db ~dom =
  let out = Matcher.Db.of_instance Instance.empty in
  List.iter
    (fun e ->
      fire_rule db dom e (fun pos pred tup ->
          if pos then ignore (Matcher.Db.insert out pred tup)
          else
            invalid_arg
              "Eval_util.consequences: negative head (use consequences_signed)"))
    prepared;
  Matcher.Db.instance out

let consequences_signed prepared inst ~dom =
  let db = Matcher.Db.of_instance inst in
  let pos = Matcher.Db.of_instance Instance.empty
  and neg = Matcher.Db.of_instance Instance.empty in
  List.iter
    (fun e ->
      fire_rule db dom e (fun p pred tup ->
          ignore (Matcher.Db.insert (if p then pos else neg) pred tup)))
    prepared;
  (Matcher.Db.instance pos, Matcher.Db.instance neg)

(* Per-rule delta predicates, computed once per fixpoint: the positive
   body predicates that belong to [delta_preds], i.e. the occurrences a
   semi-naive pass can restrict to the previous round's delta. *)
let with_delta_preds prepared delta_preds =
  List.map
    (fun e ->
      let dps =
        List.sort_uniq String.compare
          (List.filter_map
             (function
               | Ast.BPos a when List.mem a.Ast.pred delta_preds ->
                   Some a.Ast.pred
               | _ -> None)
             e.rule.Ast.body)
      in
      (e, dps))
    prepared

(* Round-fresh accumulator state: per-predicate list of new facts plus a
   flat set of them for within-round dedup. The delta never takes the shape
   of a persistent relation — building one costs a path copy per fact,
   and nothing downstream (indexing, absorbing) needs more than the
   list. The sets start at 32 slots and grow: a magic session runs many
   rounds that derive a handful of facts each, and a slot array past 256
   words would be allocated on the major heap every round. *)
type fresh_tbl = (string, Tuple.t list ref * Tuple.Set.t) Hashtbl.t

let pred_state (tbl : fresh_tbl) p =
  match Hashtbl.find_opt tbl p with
  | Some s -> s
  | None ->
      let s = (ref [], Tuple.Set.create 16) in
      Hashtbl.add tbl p s;
      s

(* Add the fact [t] to one predicate's accumulator unless [seen] already
   holds it: one probe. *)
let add_unseen lst seen t = if Tuple.Set.add seen t then lst := t :: !lst

(* The same for the fact [ids], a matcher scratch buffer: copied into a
   tuple first. *)
let add_unseen_ids lst seen ids =
  add_unseen lst seen (Tuple.of_ids ids)

(* drain per-predicate fact lists into an assoc list (pred-name order,
   so round processing stays deterministic) and reset the table for the
   next round; [facts] reads one predicate's list out of its entry *)
let drain (tbl : (string, 'a) Hashtbl.t) facts =
  let per =
    Hashtbl.fold (fun p s acc -> (p, List.rev (facts s)) :: acc) tbl []
  in
  Hashtbl.reset tbl;
  List.sort (fun (a, _) (b, _) -> String.compare a b) per

let take_fresh (tbl : fresh_tbl) = drain tbl (fun (lst, _) -> !lst)

let total_fresh delta =
  List.fold_left (fun n (_, ts) -> n + List.length ts) 0 delta

let round_names = Array.init 64 string_of_int

(* The round skeleton every fixpoint loop here shares. Each application
   of Γ is one "round" span whose close records the size of the delta it
   produced, and which feeds the [fixpoint.rounds], [fixpoint.delta_max]
   and [fixpoint.delta_total] counters; the loop stops after the first
   round that produced nothing. [stages] counts the applications of Γ
   that inferred new facts, so every loop agrees with the naive engine's
   count.

   A loop supplies only how one round derives its facts: [step s]
   applies Γ once to the state [s] the previous round left and returns
   the next state with the size of its delta. [first] is what enters
   the loop: [`Round0 f] runs [f ()] as round 0 (the initial full
   evaluation), [`Delta (s, n)] is a caller-supplied delta of size [n]
   that replaces round 0 and opens no span. Returns the last state and
   the stage count. Round spans follow each other on one clock reading
   ([Trace.next_span]), and their names are made once. *)
let rounds ~trace ~first ~step =
  let tracing = Trace.enabled trace in
  let round_no = ref 0 in
  let name () =
    let i = !round_no in
    Stdlib.incr round_no;
    if i < 64 then round_names.(i) else string_of_int i
  in
  (* a round just ran and produced [d] facts: its span closes, and the
     next round's opens on the same clock reading unless [d] is 0 *)
  let rec loop (s, d) stages =
    if tracing then (
      Trace.incr_key trace k_rounds;
      Trace.max_key trace k_delta_max d;
      Trace.add_key trace k_delta_total d;
      let fields = [ Trace.fint "delta" d ] in
      if d = 0 then Trace.close_span trace ~fields ()
      else Trace.next_span trace ~fields ~kind:"round" (name ()));
    if d = 0 then (s, stages) else loop (step s) (stages + 1)
  in
  let open_round () =
    if tracing then Trace.open_span trace ~kind:"round" (name ())
  in
  match first with
  | `Round0 f ->
      open_round ();
      loop (f ()) 0
  | `Delta (s, 0) -> (s, 0)
  | `Delta (s, _) ->
      open_round ();
      loop (step s) 1

(* The worker owning the fact [ids] among [nw]: a mixed hash of its
   first-column id. Interned ids are dense small integers, so mixing
   first keeps ownership uncorrelated with interning order. Arity-0
   facts belong to worker 0. *)
let owner nw ids =
  if nw = 1 || Array.length ids = 0 then 0
  else
    let x = Array.unsafe_get ids 0 in
    let x = (x lxor (x lsr 16)) * 0x45d9f3b in
    let x = (x lxor (x lsr 13)) land max_int in
    x mod nw

(* One worker of the semi-naive loop: the facts it owns that are new
   this round, and its owned slice of the previous round's delta. With
   one worker, [db] and [tr] are the loop's own; with more, [db] is a
   view of the loop's database counting into the private [tr]. *)
type worker = {
  db : Matcher.Db.t;
  tr : Observe.Trace.ctx;
  fresh : fresh_tbl;
  mutable delta : (string * Tuple.t list) list;
  dixes : (string * int list, Relation.Index.t) Hashtbl.t;
      (* indexes over [delta] per (pred, positions), memoized for the
         round so rules sharing bound positions share one build *)
}

let delta_index wk p dts positions =
  match Hashtbl.find_opt wk.dixes (p, positions) with
  | Some ix -> ix
  | None ->
      let ix = Relation.Index.of_list (Array.of_list positions) dts in
      Hashtbl.add wk.dixes (p, positions) ix;
      ix

(* The semi-naive rounds on [nw] workers: the pool's size, or one when
   there is no pool. One Db serves the whole fixpoint: each round's
   delta is fed back with [Db.absorb_new], so join indexes are built
   once and extended incrementally. The db is a parameter so long-lived
   callers (Magic sessions, the resident server) thread one database
   through many fixpoints.

   Freshness is decided the same way at every [nw]. A derived fact in
   [db]'s membership set is a duplicate; those sets change only between
   rounds. Any other fact joins its owner's round accumulator: directly
   when the deriving worker owns it, else posted through
   [Parallel.Exchange] and drained by the owner in a second phase of the
   same pool fan-out. Round 0 fires the rules round-robin over the
   workers; a later round, each worker fires every rule against its own
   delta slice, so ownership is the slicing. Between rounds the calling
   domain absorbs the accumulators into [db] (pred order, then worker
   order) and installs each as its worker's next slice.

   The per-round delta set is therefore the same at every [nw], and so
   are the round spans, the round counters, the stage count and the
   final database. One worker runs with no prewarm, exchange, view or
   [par.*] counter. More workers share [db] read-only ([Matcher.prewarm]
   forces every lazy build up front), count into private traces merged
   at the end, and report [par.exchange_ms] (the slowest drain of each
   round, summed), [par.exchanged_tuples] and [par.shard_skew] (100 =
   balanced, [100 * nw] = one worker owns every fresh fact).

   [initial] skips round 0 and starts the delta loop from the given
   fresh facts (not in [db], pairwise distinct): the incremental entry
   point of the resident server and of DRed. *)
let seminaive ~trace ?neg_db ?pool ?initial ~with_dps ~dom db =
  let tracing = Observe.Trace.enabled trace in
  let par =
    match pool with
    | Some p when Parallel.Pool.size p > 1 ->
        Some (p, Parallel.Exchange.create (Parallel.Pool.size p))
    | _ -> None
  in
  let nw = match par with Some (p, _) -> Parallel.Pool.size p | None -> 1 in
  if nw > 1 then
    List.iter (fun (e, _) -> Matcher.prewarm ?neg_db e.plan db) with_dps;
  let workers =
    Array.init nw (fun _ ->
        let db, tr =
          if nw = 1 then (db, trace)
          else
            let tr =
              if tracing then Observe.Trace.make ~sinks:[] ()
              else Observe.Trace.null
            in
            (Matcher.Db.with_trace db tr, tr)
        in
        {
          db;
          tr;
          fresh = Hashtbl.create 4;
          delta = [];
          dixes = Hashtbl.create 8;
        })
  in
  (* one firing pass of a rule on worker [w]; its dedup counts are
     flushed once, after the pass *)
  let fire w e delta =
    let wk = workers.(w) in
    let t0 = if tracing && nw > 1 then Observe.Trace.now () else 0. in
    (* per-predicate cache: consecutive firings of the same head
       predicate (the common case) touch no string-keyed table at all *)
    let cur_p = ref "" in
    let cur_mem = ref None in
    let cur_state = ref None in
    let have = ref false in
    let derived = ref 0 and deduped = ref 0 in
    let n =
      Matcher.iter_firings ?delta
        ?delta_index:(Option.map (fun (p, dts) -> delta_index wk p dts) delta)
        ?neg_db ~dom e.plan wk.db
        (fun ~pos p ids ->
          if pos then (
            if not (!have && String.equal !cur_p p) then (
              have := true;
              cur_p := p;
              cur_mem := Some (Matcher.Db.memset wk.db p);
              cur_state := Some (pred_state wk.fresh p));
            (* one hash per firing: the probe's serves the new tuple *)
            let h = Tuple.hash_ids ids in
            if Matcher.Db.memset_mem_hashed (Option.get !cur_mem) ids h then (
              if tracing then Stdlib.incr deduped)
            else (
              if tracing then Stdlib.incr derived;
              let o = owner nw ids in
              if o = w then (
                let lst, seen = Option.get !cur_state in
                add_unseen lst seen (Tuple.of_hashed ids h))
              else
                match par with
                | Some (_, ex) ->
                    ignore
                      (Parallel.Exchange.post ex ~src:w ~dst:o p
                         (Tuple.of_hashed ids h))
                | None -> ())))
    in
    if tracing then (
      if !deduped > 0 then Trace.add_key wk.tr k_deduped !deduped;
      if !derived > 0 then Trace.add_key wk.tr k_derived !derived;
      Trace.add_key wk.tr e.firings n;
      if nw > 1 then (
        Trace.incr_key wk.tr k_tasks;
        Trace.observe_s_key wk.tr k_task (Observe.Trace.now () -. t0)))
  in
  let derive_full w =
    List.iteri (fun i (e, _) -> if i mod nw = w then fire w e None) with_dps
  in
  let derive_delta w =
    let wk = workers.(w) in
    List.iter
      (fun (e, dps) ->
        List.iter
          (fun p ->
            match List.assoc_opt p wk.delta with
            | None | Some [] -> ()
            | Some dts -> fire w e (Some (p, dts)))
          dps)
      with_dps
  in
  let exch_s = Array.make nw 0.0 in
  let exchange_s = ref 0.0 in
  let exchange ex w =
    let t0 = Observe.Trace.now () in
    let wk = workers.(w) in
    Parallel.Exchange.drain ex ~dst:w (fun ~src:_ ~pred ts ->
        let lst, seen = pred_state wk.fresh pred in
        List.iter (add_unseen lst seen) ts);
    exch_s.(w) <- Observe.Trace.now () -. t0
  in
  (* one round: derive on every worker, then drain each worker's
     accumulator into a sorted assoc list *)
  let run_round derive =
    (match par with
    | None -> derive 0
    | Some (pool, ex) ->
        Parallel.Pool.run_phases pool [| derive; exchange ex |];
        exchange_s := !exchange_s +. Array.fold_left Float.max 0.0 exch_s);
    let per_w = Array.map (fun wk -> take_fresh wk.fresh) workers in
    let wtot = Array.map total_fresh per_w in
    let total = Array.fold_left ( + ) 0 wtot in
    if tracing && total > 0 && nw > 1 then
      Observe.Trace.gauge_max trace "par.shard_skew"
        (100 * nw * Array.fold_left max 0 wtot / total);
    (per_w, total)
  in
  (* between rounds: the accumulators are disjoint by ownership and
     fresh by the membership check, exactly [absorb_new]'s contract *)
  let absorb_and_install per_w =
    let preds =
      List.sort_uniq String.compare
        (List.concat_map (List.map fst) (Array.to_list per_w))
    in
    List.iter
      (fun p ->
        Array.iter
          (fun fr ->
            match List.assoc_opt p fr with
            | None | Some [] -> ()
            | Some ts -> Matcher.Db.absorb_new db p ts)
          per_w)
      preds;
    Array.iteri
      (fun w fr ->
        workers.(w).delta <- fr;
        Hashtbl.reset workers.(w).dixes)
      per_w
  in
  let first =
    match initial with
    | None -> `Round0 (fun () -> run_round derive_full)
    | Some d ->
        (* any partition of a delta is a valid slicing: the caller's
           starts on worker 0 *)
        `Delta
          (Array.init nw (fun w -> if w = 0 then d else []), total_fresh d)
  in
  let _, stages =
    rounds ~trace ~first ~step:(fun per_w ->
        absorb_and_install per_w;
        run_round derive_delta)
  in
  (match par with
  | Some (_, ex) when tracing ->
      Observe.Trace.gauge_max trace "par.domains" nw;
      Observe.Trace.add trace "par.exchange_ms"
        (int_of_float (!exchange_s *. 1000.));
      Observe.Trace.add trace "par.exchanged_tuples"
        (Parallel.Exchange.total_posted ex);
      Array.iter (fun wk -> Observe.Trace.merge_counters trace wk.tr) workers
  | _ -> ());
  stages

let seminaive_fixpoint_db ?(trace = Observe.Trace.null) ?neg_db prepared
    ~delta_preds ~dom db =
  let with_dps = with_delta_preds prepared delta_preds in
  match Parallel.Pool.acquire () with
  | Some pool ->
      Fun.protect
        ~finally:(fun () -> Parallel.Pool.release pool)
        (fun () -> seminaive ~trace ?neg_db ~pool ~with_dps ~dom db)
  | None ->
      (* jobs > 1 but the pool is held: inside a task (a wave group)
         this fixpoint is that worker's share of the job; outside one it
         is a degradation, counted instead of hidden *)
      if Parallel.Pool.jobs () > 1 && not (Parallel.Pool.in_task ()) then
        Observe.Trace.incr trace "par.pool.fallbacks";
      seminaive ~trace ?neg_db ~with_dps ~dom db

let seminaive_fixpoint ?(trace = Observe.Trace.null) ?neg_db prepared
    ~delta_preds ~dom inst =
  let db = Matcher.Db.of_instance ~trace inst in
  let stages =
    seminaive_fixpoint_db ~trace ?neg_db prepared ~delta_preds ~dom db
  in
  (Matcher.Db.instance db, stages)

(* ------------------------------------------------------------------ *)
(* Incremental view maintenance over a long-lived materialized Db: the
   write path of the resident server. Insertion is the semi-naive delta
   loop started from the fresh facts; deletion is DRed
   (delete-and-rederive). *)

let seminaive_increment_db ?(trace = Observe.Trace.null) ?neg_db prepared
    ~delta_preds ~dom db delta =
  match List.filter (fun (_, ts) -> ts <> []) delta with
  | [] -> 0
  | delta ->
      let with_dps = with_delta_preds prepared delta_preds in
      seminaive ~trace ?neg_db ~initial:delta ~with_dps ~dom db

(* DRed needs two compiled artifacts beyond the ordinary plans: the
   delta-pred table over every positive body predicate (the cone and the
   propagation loop restrict to arbitrary deleted predicates, not just
   idb ones), and one "guard" plan per rule —

     P(t̄) :- dred$P(t̄), body

   — whose synthetic first atom ranges over the deleted facts of the
   rule's own head. Firing it with [~delta:(dred$P, D_P)] enumerates
   exactly the one-step rederivations of deleted facts from the
   surviving database, without materializing any dred$ relation (the
   delta mechanism feeds the atom directly). Built once per program and
   reused across every retraction batch. *)
type dred_prepared = {
  dr_with_dps : (entry * string list) list;
  dr_guards : (string * Matcher.prepared) list;
}

let dred_guard_pred p = "dred$" ^ p

let prepare_dred prepared =
  let body_preds =
    List.sort_uniq String.compare
      (List.concat_map
         (fun e ->
           List.filter_map
             (function Ast.BPos a -> Some a.Ast.pred | _ -> None)
             e.rule.Ast.body)
         prepared)
  in
  let guards =
    List.filter_map
      (fun { rule; _ } ->
        match rule.Ast.head with
        | [ Ast.HPos h ] ->
            let guard =
              Ast.BPos (Ast.atom (dred_guard_pred h.Ast.pred) h.Ast.args)
            in
            Some
              ( h.Ast.pred,
                Matcher.prepare { rule with Ast.body = guard :: rule.Ast.body }
              )
        | _ -> None)
      prepared
  in
  { dr_with_dps = with_delta_preds prepared body_preds; dr_guards = guards }

type dred_stats = { overdeleted : int; rederived : int; cone_rounds : int }

(* Delete-and-rederive, four phases:

   1. Over-delete cone: starting from the retracted facts, iterate the
      delta-restricted rules against the STILL-INTACT database (so a
      derivation using two deleted facts is found too), collecting every
      present head fact reachable from a deleted fact.
   2. Delete the whole cone from the db (membership sets, rows and
      indexes stay in sync via [Db.remove]).
   3. Re-derivation seed: cone facts still present in the base EDB
      (retraction only withdrew their *derived* support), plus every
      cone fact one guard plan rederives from the surviving database.
   4. Propagate the seed with the ordinary semi-naive increment loop —
      each rederived fact can restore the support of further cone facts.

   A fact outside the cone keeps all its derivations (none used a
   deleted fact), and induction on minimal derivation height shows every
   cone fact still derivable from the surviving EDB is restored by
   phases 3–4 — so the result equals recomputing the fixpoint from the
   post-retraction EDB (the property suite checks byte-identity against
   exactly that oracle). *)
let dred ?(trace = Observe.Trace.null) dprep ~edb ~dom db deletions =
  (* distinct retracted facts actually present in the materialization *)
  let deletions =
    let tmp : fresh_tbl = Hashtbl.create 4 in
    List.iter
      (fun (p, ts) ->
        List.iter
          (fun t ->
            if Matcher.Db.mem db p t then (
              let lst, seen = pred_state tmp p in
              add_unseen lst seen t))
          ts)
      deletions;
    take_fresh tmp
  in
  if deletions = [] then { overdeleted = 0; rederived = 0; cone_rounds = 0 }
  else (
    let tracing = Observe.Trace.enabled trace in
    (* each phase is a span of its own kind: [--stats] and the serve
       [stats] op's [span.<kind>] histograms split a retract by phase *)
    let phase kind f = Observe.Trace.with_span trace ~kind "dred" f in
    (* phase 1: the over-deletion cone, frontier by frontier *)
    let seen : (string, Tuple.Set.t) Hashtbl.t = Hashtbl.create 8 in
    let seen_of p =
      match Hashtbl.find_opt seen p with
      | Some set -> set
      | None ->
          let set = Tuple.Set.create 64 in
          Hashtbl.add seen p set;
          set
    in
    let cone : (string, Tuple.t list ref) Hashtbl.t = Hashtbl.create 8 in
    let add_cone p ts =
      match Hashtbl.find_opt cone p with
      | Some l -> l := List.rev_append ts !l
      | None -> Hashtbl.add cone p (ref ts)
    in
    List.iter
      (fun (p, ts) ->
        List.iter
          (fun t -> ignore (Tuple.Set.add (seen_of p) t))
          ts;
        add_cone p ts)
      deletions;
    let cone_rounds = ref 0 in
    let fresh : fresh_tbl = Hashtbl.create 4 in
    let frontier = ref deletions in
    phase "cone" (fun () ->
        while !frontier <> [] do
          Stdlib.incr cone_rounds;
          List.iter
            (fun (e, dps) ->
              List.iter
                (fun pred ->
                  match List.assoc_opt pred !frontier with
                  | None | Some [] -> ()
                  | Some dts ->
                      ignore
                        (Matcher.iter_firings ~delta:(pred, dts) ~dom e.plan db
                           (fun ~pos p ids ->
                             if
                               pos
                               && Matcher.Db.memset_mem
                                    (Matcher.Db.memset db p) ids
                             then
                               add_unseen_ids (fst (pred_state fresh p))
                                 (seen_of p) ids)))
                dps)
            dprep.dr_with_dps;
          (* a predicate whose firings were all seen before leaves an empty
             entry; dropping it keeps the loop's exit test exact *)
          let next =
            List.filter (fun (_, ts) -> ts <> []) (take_fresh fresh)
          in
          List.iter (fun (p, ts) -> add_cone p ts) next;
          frontier := next
        done);
    (* phase 2: delete the cone *)
    let cone_preds =
      List.sort String.compare (Hashtbl.fold (fun p _ acc -> p :: acc) cone [])
    in
    let overdeleted = ref 0 in
    phase "delete" (fun () ->
        List.iter
          (fun p ->
            List.iter
              (fun t ->
                if Matcher.Db.remove db p t then Stdlib.incr overdeleted)
              !(Hashtbl.find cone p))
          cone_preds);
    (* phase 3: re-derivation seed *)
    let r0 : fresh_tbl = Hashtbl.create 4 in
    let add_r0 p t =
      let lst, rseen = pred_state r0 p in
      add_unseen lst rseen t
    in
    phase "seed" (fun () ->
        List.iter
          (fun p ->
            List.iter
              (fun t -> if Matcher.Db.mem edb p t then add_r0 p t)
              !(Hashtbl.find cone p))
          cone_preds;
        List.iter
          (fun (hp, gplan) ->
            match Hashtbl.find_opt cone hp with
            | None -> ()
            | Some lst ->
                ignore
                  (Matcher.iter_firings
                     ~delta:(dred_guard_pred hp, !lst)
                     ~dom gplan db
                     (fun ~pos p ids ->
                       if
                         pos
                         && not
                              (Matcher.Db.memset_mem (Matcher.Db.memset db p)
                                 ids)
                       then add_r0 p (Tuple.of_ids ids))))
          dprep.dr_guards);
    (* phase 4: propagate the survivors *)
    let seed = take_fresh r0 in
    let before = Matcher.Db.total db in
    phase "propagate" (fun () ->
        if total_fresh seed > 0 then
          ignore
            (seminaive ~trace ~initial:seed ~with_dps:dprep.dr_with_dps
               ~dom db));
    let rederived = Matcher.Db.total db - before in
    if tracing then (
      Trace.incr_key trace k_dred_batches;
      Trace.add_key trace k_overdeleted !overdeleted;
      Trace.add_key trace k_rederived rederived;
      Trace.max_key trace k_cone_rounds !cone_rounds);
    { overdeleted = !overdeleted; rederived; cone_rounds = !cone_rounds })

let naive_fixpoint ?(trace = Observe.Trace.null) prepared ~dom inst =
  let step current =
    let db = Matcher.Db.of_instance ~trace current in
    let next = Instance.union current (consequences_db prepared db ~dom) in
    (next, Instance.total_facts next - Instance.total_facts current)
  in
  rounds ~trace ~first:(`Round0 (fun () -> step inst)) ~step

let stage_trace prepared ~dom inst =
  let db = Matcher.Db.of_instance inst in
  let rec loop acc =
    let current = Matcher.Db.instance db in
    let derived = consequences_db prepared db ~dom in
    if Instance.subset derived current then List.rev (current :: acc)
    else (
      Matcher.Db.absorb db derived;
      loop (current :: acc))
  in
  loop []

type stats = { stages : int; facts_inferred : int }
