open Relational

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

type prepared = (Ast.rule * Matcher.prepared) list

let prepare p = List.map (fun r -> (r, Matcher.prepare r)) p
let rules p = p
let plans p = List.map snd p

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

let count_firings db label n =
  let tr = Matcher.Db.trace db in
  if Observe.Trace.enabled tr then
    Observe.Trace.add tr ("rule_firings." ^ label) n

(* Rules reaching this path have passed the safety checks, so every head
   variable is body-bound and the interned firing fast path applies:
   matches ground the compiled head templates directly, with no
   substitution lists and no value decode/re-intern round trip. *)
let fire_rule ?delta ?neg_db ?label db dom (_rule, plan) k =
  let n =
    Matcher.iter_firings ?delta ~dom ?neg_db plan db (fun ~pos pred ids ->
        k (pos, pred, Tuple.of_ids (Array.copy ids)))
  in
  match label with Some l -> count_firings db l n | None -> ()

let consequences_db ?neg_db prepared db ~dom =
  let out = ref Instance.empty in
  List.iteri
    (fun i ((rule, _) as rp) ->
      fire_rule ?neg_db ~label:(rule_label i rule) db dom rp
        (fun (pos, pred, tup) ->
          if pos then out := Instance.add_fact pred tup !out
          else
            invalid_arg
              "Eval_util.consequences: negative head (use consequences_signed)"))
    prepared;
  !out

let consequences prepared inst ~dom =
  consequences_db prepared (Matcher.Db.of_instance inst) ~dom

let consequences_signed_db prepared db ~dom =
  let pos = ref Instance.empty and neg = ref Instance.empty in
  List.iteri
    (fun i ((rule, _) as rp) ->
      fire_rule ~label:(rule_label i rule) db dom rp (fun (p, pred, tup) ->
          if p then pos := Instance.add_fact pred tup !pos
          else neg := Instance.add_fact pred tup !neg))
    prepared;
  (!pos, !neg)

let consequences_signed prepared inst ~dom =
  consequences_signed_db prepared (Matcher.Db.of_instance inst) ~dom

(* Per-rule delta predicates, computed once per fixpoint: the positive
   body predicates that belong to [delta_preds], i.e. the occurrences a
   semi-naive pass can restrict to the previous round's delta. *)
let with_delta_preds prepared delta_preds =
  List.mapi
    (fun i (rule, plan) ->
      let dps =
        List.sort_uniq String.compare
          (List.filter_map
             (function
               | Ast.BPos a when List.mem a.Ast.pred delta_preds ->
                   Some a.Ast.pred
               | _ -> None)
             rule.Ast.body)
      in
      (rule, plan, dps, rule_label i rule))
    prepared

(* Round-fresh accumulator state: per-predicate list of new facts plus a
   flat hash set for within-round dedup. The delta never takes the shape
   of a persistent relation — building one costs a path copy per fact,
   and nothing downstream (indexing, absorbing) needs more than the
   list. *)
type fresh_tbl = (string, Tuple.t list ref * unit Matcher.IdTbl.t) Hashtbl.t

let pred_state (tbl : fresh_tbl) p =
  match Hashtbl.find_opt tbl p with
  | Some s -> s
  | None ->
      let s = (ref [], Matcher.IdTbl.create 256) in
      Hashtbl.add tbl p s;
      s

(* Add the fact [ids] to one predicate's accumulator unless [seen]
   already holds it. [ids] may be a matcher scratch buffer: it is copied
   into a tuple only when the fact is new. *)
let add_unseen lst seen ids =
  if not (Matcher.IdTbl.mem seen ids) then (
    let t = Tuple.of_ids (Array.copy ids) in
    Matcher.IdTbl.replace seen (Tuple.ids t) ();
    lst := t :: !lst)

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
   the stage count. *)
let rounds ~trace ~first ~step =
  let tracing = Observe.Trace.enabled trace in
  let round_no = ref 0 in
  let round f x =
    if tracing then (
      Observe.Trace.open_span trace ~kind:"round" (string_of_int !round_no);
      Stdlib.incr round_no);
    let ((_, d) as r) = f x in
    if tracing then (
      Observe.Trace.incr trace "fixpoint.rounds";
      Observe.Trace.gauge_max trace "fixpoint.delta_max" d;
      Observe.Trace.add trace "fixpoint.delta_total" d;
      Observe.Trace.close_span trace
        ~fields:[ Observe.Trace.fint "delta" d ]
        ());
    r
  in
  let rec loop (s, d) stages =
    if d = 0 then (s, stages) else loop (round step s) (stages + 1)
  in
  loop (match first with `Round0 f -> round f () | `Delta sd -> sd) 0

(* One Db for the whole fixpoint: each stage feeds its delta back with
   [Db.absorb], so join indexes are built once and extended
   incrementally instead of being rebuilt from the full instance. The db
   is a parameter so long-lived callers (Magic sessions) can thread the
   same database through many fixpoints.

   [initial] skips the round-0 full evaluation and starts the delta loop
   from the given fresh facts (not yet in [db], pairwise distinct) — the
   incremental-insertion entry point of the resident server. *)
let seminaive_seq ~trace ?neg_db ?initial ?on_delta ~with_dps ~dom db =
  let tracing = Observe.Trace.enabled trace in
  let fresh_tbl : fresh_tbl = Hashtbl.create 4 in
  let pred_state p = pred_state fresh_tbl p in
  (* one firing pass for a rule: fresh positive consequences accumulate
     into the round accumulator (a set, so the unspecified enumeration
     order of [iter_firings] cannot leak) *)
  let fire_fresh ?delta plan label =
    (* per-predicate cache: consecutive firings of the same head
       predicate (the common case) touch no string-keyed table at all *)
    let cur_p = ref "" in
    let cur_mem = ref None in
    let cur_state = ref None in
    let have = ref false in
    let n =
      Matcher.iter_firings ?delta ?neg_db ~dom plan db (fun ~pos p ids ->
          if pos then (
            if not (!have && String.equal !cur_p p) then (
              have := true;
              cur_p := p;
              cur_mem := Some (Matcher.Db.memset db p);
              cur_state := Some (pred_state p));
            if Matcher.Db.memset_mem (Option.get !cur_mem) ids then (
              if tracing then Observe.Trace.incr trace "fixpoint.tuples_deduped")
            else (
              if tracing then Observe.Trace.incr trace "fixpoint.tuples_derived";
              let lst, seen = Option.get !cur_state in
              add_unseen lst seen ids)))
    in
    if tracing then count_firings db label n
  in
  let take () =
    let d = take_fresh fresh_tbl in
    (d, total_fresh d)
  in
  (* round 0: full evaluation (unless a caller-supplied delta replaces
     it); the facts not already present form Δ⁰ *)
  let first =
    match initial with
    | Some d -> `Delta (d, total_fresh d)
    | None ->
        `Round0
          (fun () ->
            List.iter
              (fun (_rule, plan, _, label) -> fire_fresh plan label)
              with_dps;
            take ())
  in
  let step delta =
    (* observers (the counting-maintenance sweep) see each round's delta
       just before it is absorbed, i.e. exactly the facts that are new
       this round *)
    (match on_delta with Some f -> f delta | None -> ());
    List.iter (fun (p, ts) -> Matcher.Db.absorb_new db p ts) delta;
    List.iter
      (fun (_rule, plan, dps, label) ->
        List.iter
          (fun pred ->
            match List.assoc_opt pred delta with
            | None | Some [] -> ()
            | Some dts -> fire_fresh ~delta:(pred, dts) plan label)
          dps)
      with_dps;
    take ()
  in
  let _, stages = rounds ~trace ~first ~step in
  (Matcher.Db.instance db, stages)

(* Shard-owned semi-naive rounds (Slog-style hash partitioning): each
   worker domain OWNS a disjoint shard of every head predicate —
   ownership decided by [Matcher.Shard.owner] on the first-column id —
   and freshness is decided locally, with no global merge:

   - seed: every worker folds its partition of the head-predicate
     relations into per-shard membership sets (one parallel pass);
   - derive: worker [w] fires each rule restricted to its OWN delta
     slices (the previous round's owned-fresh facts — ownership IS the
     slicing, no repartitioning) against the shared read-only database
     ([Matcher.prewarm] ran every lazy build up front). A derived fact
     it owns is deduped against its shard set and kept; a fact owned
     elsewhere is pre-filtered against the frozen global membership set
     and posted to the owner's outbox ([Parallel.Exchange], per-edge
     duplicate suppression);
   - exchange (second phase of the same [Pool.run_phases] fan-out): each
     owner drains its inboxes in deterministic source order, dedups
     against its shard set, and appends the survivors to its fresh list;
   - between rounds the coordinator absorbs every shard's fresh list
     into the shared database (pred order, then worker order) and
     installs each list as that shard's next delta slice.

   The per-round delta SET equals the sequential one (every candidate is
   routed to exactly one owner whose membership set is complete for its
   partition), so the round structure, stage count and final instance
   are identical to [seminaive_seq] — and the instance prints sorted, so
   the output is byte-identical. Only the cross-shard tuples move
   ([par.exchange_ms] critical-path time, [par.exchanged_tuples] volume,
   [par.shard_skew] balance — 100 means perfectly balanced, [100 * nw]
   means one shard owns everything). Trace counters are merged from the
   workers (sums, gauges by max); derivation counts can differ from a
   sequential run, which is why determinism is asserted on instances. *)
let seminaive_shard ~trace ?neg_db ~pool ~with_dps ~dom db =
  let tracing = Observe.Trace.enabled trace in
  let nw = Parallel.Pool.size pool in
  List.iter (fun (_rule, plan, _, _) -> Matcher.prewarm ?neg_db plan db) with_dps;
  (* predicates whose freshness the fixpoint decides — every positive
     compiled head (negative heads are ignored on this path, as in the
     sequential driver) *)
  let head_preds =
    List.sort_uniq String.compare
      (List.concat_map
         (fun (rule, _, _, _) ->
           List.filter_map
             (fun h -> Option.map (fun a -> a.Ast.pred) (Ast.atom_of_hlit h))
             rule.Ast.head)
         with_dps)
  in
  (* coordinator-side snapshots before fanning out: [relation]/[memset]
     flush the pending buffer, which workers must never trigger *)
  let head_rels = List.map (fun p -> (p, Matcher.Db.relation db p)) head_preds in
  let gmems = List.map (fun p -> (p, Matcher.Db.memset db p)) head_preds in
  let shards =
    Array.init nw (fun w -> Matcher.Shard.create ~nshards:nw ~shard:w)
  in
  Parallel.Pool.run pool (fun w ->
      List.iter (fun (p, rel) -> Matcher.Shard.seed shards.(w) p rel) head_rels);
  let wctx =
    Array.init nw (fun _ ->
        if tracing then Observe.Trace.make ~sinks:[] () else Observe.Trace.null)
  in
  let wdb = Array.init nw (fun w -> Matcher.Db.with_trace db wctx.(w)) in
  let wfresh : (string, Tuple.t list ref) Hashtbl.t array =
    Array.init nw (fun _ -> Hashtbl.create 8)
  in
  let ex = Parallel.Exchange.create nw in
  let exch_s = Array.make nw 0.0 in
  let exchange_s = ref 0.0 in
  let push_fresh w p t =
    match Hashtbl.find_opt wfresh.(w) p with
    | Some l -> l := t :: !l
    | None -> Hashtbl.add wfresh.(w) p (ref [ t ])
  in
  (* one firing task on worker [w]: derive, route by owner *)
  let fire w (plan, label, dpred) =
    let vdb = wdb.(w) in
    let wtr = wctx.(w) in
    let sh = shards.(w) in
    let t0 = if tracing then Observe.Trace.now () else 0. in
    let delta, delta_index =
      match dpred with
      | None -> (None, None)
      | Some p ->
          ( Some (p, Matcher.Shard.delta sh p),
            Some (fun positions -> Matcher.Shard.delta_index sh p positions) )
    in
    let cur_p = ref "" in
    let cur_mem = ref None in
    let have = ref false in
    let n =
      Matcher.iter_firings ?delta ?delta_index ?neg_db ~dom plan vdb
        (fun ~pos p ids ->
          if pos then (
            if not (!have && String.equal !cur_p p) then (
              have := true;
              cur_p := p;
              cur_mem := Some (List.assoc p gmems));
            let o = Matcher.Shard.owner ~nshards:nw ids in
            if o = w then
              if Matcher.Shard.mem sh p ids then (
                if tracing then Observe.Trace.incr wtr "fixpoint.tuples_deduped")
              else (
                if tracing then
                  Observe.Trace.incr wtr "fixpoint.tuples_derived";
                let t = Tuple.of_ids (Array.copy ids) in
                Matcher.Shard.add sh p t;
                push_fresh w p t)
            else if Matcher.Db.memset_mem (Option.get !cur_mem) ids then (
              if tracing then Observe.Trace.incr wtr "fixpoint.tuples_deduped")
            else if
              Parallel.Exchange.post ex ~src:w ~dst:o p
                (Tuple.of_ids (Array.copy ids))
            then (if tracing then Observe.Trace.incr wtr "par.posts")))
    in
    if tracing then (
      Observe.Trace.add wtr ("rule_firings." ^ label) n;
      Observe.Trace.incr wtr "par.tasks";
      Observe.Trace.observe_s wtr "par.task" (Observe.Trace.now () -. t0))
  in
  (* round 0: full evaluation, rules round-robin over workers *)
  let rules0 =
    Array.of_list
      (List.map (fun (_rule, plan, _, label) -> (plan, label, None)) with_dps)
  in
  let derive_full w =
    let i = ref w in
    while !i < Array.length rules0 do
      fire w rules0.(!i);
      i := !i + nw
    done
  in
  (* later rounds: worker [w] fires every (rule, delta-pred) whose OWN
     slice is non-empty — the ownership partition is the task split *)
  let derive_delta w =
    let sh = shards.(w) in
    List.iter
      (fun (_rule, plan, dps, label) ->
        List.iter
          (fun p ->
            match Matcher.Shard.delta sh p with
            | [] -> ()
            | _ -> fire w (plan, label, Some p))
          dps)
      with_dps
  in
  let exchange w =
    let t0 = Observe.Trace.now () in
    let sh = shards.(w) in
    let wtr = wctx.(w) in
    Parallel.Exchange.drain ex ~dst:w (fun ~src:_ ~pred ts ->
        List.iter
          (fun t ->
            let ids = Tuple.ids t in
            if Matcher.Shard.mem sh pred ids then (
              if tracing then Observe.Trace.incr wtr "fixpoint.tuples_deduped")
            else (
              if tracing then Observe.Trace.incr wtr "fixpoint.tuples_derived";
              Matcher.Shard.add sh pred t;
              push_fresh w pred t))
          ts);
    exch_s.(w) <- Observe.Trace.now () -. t0
  in
  (* one round on the pool, then drain the workers' fresh buffers into
     per-worker sorted assoc lists and record the balance *)
  let run_round derive =
    Parallel.Pool.run_phases pool [| derive; exchange |];
    (* exchange cost on the critical path: the slowest worker's drain *)
    exchange_s := !exchange_s +. Array.fold_left Float.max 0.0 exch_s;
    Array.fill exch_s 0 nw 0.0;
    let per_w = Array.map (fun tbl -> drain tbl ( ! )) wfresh in
    let wtot = Array.map total_fresh per_w in
    let total = Array.fold_left ( + ) 0 wtot in
    if tracing && total > 0 && nw > 1 then (
      let mx = Array.fold_left max 0 wtot in
      Observe.Trace.gauge_max trace "par.shard_skew" (100 * nw * mx / total));
    (per_w, total)
  in
  (* between rounds, on the coordinator: feed every shard's fresh facts
     to the shared database (disjoint by ownership, fresh by the shard
     dedup — exactly [absorb_new]'s contract) and install the lists as
     the next round's delta slices *)
  let absorb_and_install per_w =
    let preds =
      List.sort_uniq String.compare
        (Array.to_list per_w |> List.concat_map (List.map fst))
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
        Matcher.Shard.clear_delta shards.(w);
        List.iter (fun (p, ts) -> Matcher.Shard.set_delta shards.(w) p ts) fr)
      per_w
  in
  let _, stages =
    rounds ~trace
      ~first:(`Round0 (fun () -> run_round derive_full))
      ~step:(fun per_w ->
        absorb_and_install per_w;
        run_round derive_delta)
  in
  let result = (Matcher.Db.instance db, stages) in
  if tracing then (
    Observe.Trace.gauge_max trace "par.domains" nw;
    Observe.Trace.add trace "par.exchange_ms"
      (int_of_float (!exchange_s *. 1000.));
    Observe.Trace.add trace "par.exchanged_tuples"
      (Parallel.Exchange.total_posted ex);
    Array.iter (fun c -> Observe.Trace.merge_counters trace c) wctx);
  result

let seminaive_fixpoint_db ?(trace = Observe.Trace.null) ?neg_db prepared
    ~delta_preds ~dom db =
  let with_dps = with_delta_preds prepared delta_preds in
  match Parallel.Pool.acquire () with
  | Some pool ->
      Fun.protect
        ~finally:(fun () -> Parallel.Pool.release pool)
        (fun () -> seminaive_shard ~trace ?neg_db ~pool ~with_dps ~dom db)
  | None ->
      (* jobs > 1 but the pool is held by an enclosing fixpoint: count
         the degradation instead of hiding it *)
      if Parallel.Pool.jobs () > 1 then
        Observe.Trace.incr trace "par.pool.fallbacks";
      seminaive_seq ~trace ?neg_db ~with_dps ~dom db

let seminaive_fixpoint ?(trace = Observe.Trace.null) ?neg_db prepared
    ~delta_preds ~dom inst =
  seminaive_fixpoint_db ~trace ?neg_db prepared ~delta_preds ~dom
    (Matcher.Db.of_instance ~trace inst)

(* ------------------------------------------------------------------ *)
(* Incremental view maintenance over a long-lived materialized Db: the
   write path of the resident server. Insertion is the semi-naive delta
   loop started from the fresh facts; deletion is DRed
   (delete-and-rederive). *)

let seminaive_increment_db ?(trace = Observe.Trace.null) ?neg_db ?on_delta
    prepared ~delta_preds ~dom db delta =
  match List.filter (fun (_, ts) -> ts <> []) delta with
  | [] -> (Matcher.Db.instance db, 0)
  | delta ->
      let with_dps = with_delta_preds prepared delta_preds in
      seminaive_seq ~trace ?neg_db ~initial:delta ?on_delta ~with_dps ~dom db

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
  dr_with_dps : (Ast.rule * Matcher.prepared * string list * string) list;
  dr_guards : (string * Matcher.prepared) list;
}

let dred_guard_pred p = "dred$" ^ p

let prepare_dred prepared =
  let body_preds =
    List.sort_uniq String.compare
      (List.concat_map
         (fun (rule, _) ->
           List.filter_map
             (function Ast.BPos a -> Some a.Ast.pred | _ -> None)
             rule.Ast.body)
         prepared)
  in
  let guards =
    List.filter_map
      (fun (rule, _) ->
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

let dred_guards dprep = dprep.dr_guards

type dred_stats = { overdeleted : int; rederived : int; cone_rounds : int }

(* Delete-and-rederive, four phases:

   1. Over-delete cone: starting from the retracted facts, iterate the
      delta-restricted rules against the STILL-INTACT database (so a
      derivation using two deleted facts is found too), collecting every
      present head fact reachable from a deleted fact.
   2. Delete the whole cone from the db (indexes, membership sets and
      the pending buffer stay in sync via [Db.remove]).
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
              add_unseen lst seen (Tuple.ids t)))
          ts)
      deletions;
    take_fresh tmp
  in
  if deletions = [] then { overdeleted = 0; rederived = 0; cone_rounds = 0 }
  else (
    let tracing = Observe.Trace.enabled trace in
    (* phase 1: the over-deletion cone, frontier by frontier *)
    let seen : (string, unit Matcher.IdTbl.t) Hashtbl.t = Hashtbl.create 8 in
    let seen_of p =
      match Hashtbl.find_opt seen p with
      | Some tb -> tb
      | None ->
          let tb = Matcher.IdTbl.create 64 in
          Hashtbl.add seen p tb;
          tb
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
          (fun t -> Matcher.IdTbl.replace (seen_of p) (Tuple.ids t) ())
          ts;
        add_cone p ts)
      deletions;
    let cone_rounds = ref 0 in
    let fresh : fresh_tbl = Hashtbl.create 4 in
    let frontier = ref deletions in
    while !frontier <> [] do
      Stdlib.incr cone_rounds;
      List.iter
        (fun (_rule, plan, dps, _label) ->
          List.iter
            (fun pred ->
              match List.assoc_opt pred !frontier with
              | None | Some [] -> ()
              | Some dts ->
                  ignore
                    (Matcher.iter_firings ~delta:(pred, dts) ~dom plan db
                       (fun ~pos p ids ->
                         if
                           pos
                           && Matcher.Db.memset_mem (Matcher.Db.memset db p)
                                ids
                         then
                           add_unseen (fst (pred_state fresh p)) (seen_of p)
                             ids))
            )
            dps)
        dprep.dr_with_dps;
      (* a predicate whose firings were all seen before leaves an empty
         entry; dropping it keeps the loop's exit test exact *)
      let next = List.filter (fun (_, ts) -> ts <> []) (take_fresh fresh) in
      List.iter (fun (p, ts) -> add_cone p ts) next;
      frontier := next
    done;
    (* phase 2: delete the cone *)
    let cone_preds =
      List.sort String.compare (Hashtbl.fold (fun p _ acc -> p :: acc) cone [])
    in
    let overdeleted = ref 0 in
    List.iter
      (fun p ->
        List.iter
          (fun t -> if Matcher.Db.remove db p t then Stdlib.incr overdeleted)
          !(Hashtbl.find cone p))
      cone_preds;
    (* phase 3: re-derivation seed *)
    let r0 : fresh_tbl = Hashtbl.create 4 in
    let add_r0 p ids =
      let lst, rseen = pred_state r0 p in
      add_unseen lst rseen ids
    in
    List.iter
      (fun p ->
        List.iter
          (fun t -> if Instance.mem_fact p t edb then add_r0 p (Tuple.ids t))
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
                          (Matcher.Db.memset_mem (Matcher.Db.memset db p) ids)
                   then add_r0 p ids)))
      dprep.dr_guards;
    (* phase 4: propagate the survivors *)
    let seed = take_fresh r0 in
    let before = Instance.total_facts (Matcher.Db.instance db) in
    if total_fresh seed > 0 then
      ignore
        (seminaive_seq ~trace ~initial:seed ~with_dps:dprep.dr_with_dps ~dom
           db);
    let rederived = Instance.total_facts (Matcher.Db.instance db) - before in
    if tracing then (
      Observe.Trace.incr trace "dred.batches";
      Observe.Trace.add trace "dred.overdeleted" !overdeleted;
      Observe.Trace.add trace "dred.rederived" rederived;
      Observe.Trace.gauge_max trace "dred.cone_rounds" !cone_rounds);
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

let restrict_idb program inst = Instance.restrict (Ast.idb program) inst
