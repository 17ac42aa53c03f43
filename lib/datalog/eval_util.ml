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

let fact_selection p ~keep =
  if List.exists (fun r -> Matcher.needs_dom (Matcher.prepare r)) p then None
  else
    let pattern (a : Ast.atom) =
      ( a.Ast.pred,
        List.map (function Ast.Cst v -> Some v | Ast.Var _ -> None) a.Ast.args
      )
    in
    Some
      (Instance.Select.make ~keep (Ast.infer_schema p)
         (List.concat_map
            (fun (r : Ast.rule) ->
              List.filter_map
                (function
                  | Ast.BPos a | Ast.BNeg a -> Some (pattern a)
                  | Ast.BEq _ | Ast.BNeq _ -> None)
                r.Ast.body)
            p))

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

(* A set of facts fed back as a delta — a worker's round accumulator,
   a DRed cone or frontier — is a Db of its own, which counts nothing.
   Its stores start at 16 slots and grow: a magic session runs many
   rounds that derive a handful of facts each, and a slot array past 256
   words would be allocated on the major heap every round. *)
let delta_db () = Matcher.Db.of_instance Instance.empty

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
   this round, which dedup them within the round and keep them in the
   order they were found, and its owned slice of the previous round's
   delta (last round's [fresh]), whose stores memoize the indexes the
   delta passes read, one build per round for every rule sharing the
   bound positions. With one worker, [db] and [tr] are the loop's own;
   with more, [db] is a view of the loop's database counting into the
   private [tr]. *)
type worker = {
  db : Matcher.Db.t;
  tr : Observe.Trace.ctx;
  mutable fresh : Matcher.Db.t;
  mutable delta : Matcher.Db.t;
}

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
   domain absorbs the accumulators into [db] (worker by worker, which
   is each predicate's worker order) and installs each as its worker's
   next slice.

   The per-round delta set is therefore the same at every [nw], and so
   are the round spans, the round counters, the stage count and the
   final database. One worker runs with no prewarm, exchange, view or
   [par.*] counter. More workers share [db] read-only ([Matcher.prewarm]
   forces every lazy build up front), count into private traces merged
   at the end, and report [par.exchange_ms] (the slowest drain of each
   round, summed), [par.exchanged_tuples] and [par.shard_skew] (100 =
   balanced, [100 * nw] = one worker owns every fresh fact).

   [initial] skips round 0 and starts the delta loop from the facts of
   the given Db (none in [db]): the incremental entry point of the
   resident server and of DRed. *)
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
    List.iter
      (fun (e, delta_preds) -> Matcher.prewarm ?neg_db ~delta_preds e.plan db)
      with_dps;
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
        { db; tr; fresh = delta_db (); delta = delta_db () })
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
    let cur_acc = ref None in
    let have = ref false in
    let derived = ref 0 and deduped = ref 0 in
    let n =
      Matcher.iter_firings ?delta ?neg_db ~dom e.plan wk.db
        (fun ~pos p ids ->
          if pos then (
            if not (!have && String.equal !cur_p p) then (
              have := true;
              cur_p := p;
              cur_mem := Some (Matcher.Db.memset wk.db p);
              cur_acc := Some (Matcher.Db.memset wk.fresh p));
            (* one hash per firing: the probe's serves the new tuple *)
            let h = Tuple.hash_ids ids in
            if Matcher.Db.memset_mem_hashed (Option.get !cur_mem) ids h then (
              if tracing then Stdlib.incr deduped)
            else (
              if tracing then Stdlib.incr derived;
              let o = owner nw ids in
              if o = w then
                ignore
                  (Matcher.Db.memset_add (Option.get !cur_acc)
                     (Tuple.of_hashed ids h))
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
            match Matcher.Db.memset_opt wk.delta p with
            | None -> ()
            | Some d -> fire w e (Some (p, d)))
          dps)
      with_dps
  in
  let exch_s = Array.make nw 0.0 in
  let exchange_s = ref 0.0 in
  let exchange ex w =
    let t0 = Observe.Trace.now () in
    let wk = workers.(w) in
    Parallel.Exchange.drain ex ~dst:w (fun ~src:_ ~pred ts ->
        let acc = Matcher.Db.memset wk.fresh pred in
        List.iter (fun t -> ignore (Matcher.Db.memset_add acc t)) ts);
    exch_s.(w) <- Observe.Trace.now () -. t0
  in
  (* one round: derive on every worker, which leaves the round's facts
     in the workers' accumulators *)
  let run_round derive =
    (match par with
    | None -> derive 0
    | Some (pool, ex) ->
        Parallel.Pool.run_phases pool [| derive; exchange ex |];
        exchange_s := !exchange_s +. Array.fold_left Float.max 0.0 exch_s);
    let per_w = Array.map (fun wk -> wk.fresh) workers in
    let wtot = Array.map Matcher.Db.total per_w in
    let total = Array.fold_left ( + ) 0 wtot in
    if tracing && total > 0 && nw > 1 then
      Observe.Trace.gauge_max trace "par.shard_skew"
        (100 * nw * Array.fold_left max 0 wtot / total);
    (per_w, total)
  in
  (* between rounds: the accumulators are disjoint by ownership and
     fresh by the membership check, exactly [absorb_new]'s contract *)
  let absorb_and_install per_w =
    Array.iter (Matcher.Db.absorb_new db) per_w;
    Array.iteri
      (fun w fr ->
        workers.(w).delta <- fr;
        workers.(w).fresh <- delta_db ())
      per_w
  in
  let first =
    match initial with
    | None -> `Round0 (fun () -> run_round derive_full)
    | Some d ->
        (* any partition of a delta is a valid slicing: the caller's
           starts on worker 0 *)
        `Delta
          ( Array.init nw (fun w -> if w = 0 then d else delta_db ()),
            Matcher.Db.total d )
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
  if Matcher.Db.total delta = 0 then 0
  else
    let with_dps = with_delta_preds prepared delta_preds in
    seminaive ~trace ?neg_db ~initial:delta ~with_dps ~dom db

(* DRed needs two compiled artifacts beyond the ordinary plans: the
   delta-pred table over every positive body predicate (the cone and the
   propagation loop restrict to arbitrary deleted predicates, not just
   idb ones), and one "guard" plan per rule —

     P(t̄) :- dred$P(t̄), body

   — whose synthetic first atom ranges over the deleted facts of the
   rule's own head. Firing it with [~delta:(dred$P, C_P)], where [C_P]
   is the cone's store for [P], enumerates exactly the one-step
   rederivations of deleted facts from the surviving database, without
   materializing any dred$ relation (the delta mechanism feeds the atom
   directly). Built once per program and
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
   2. Delete the whole cone from the db (membership sets and indexes
      stay in sync via [Db.remove]).
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
  (* the over-deletion cone: per predicate, the facts met so far, in the
     order met — the retracted facts actually present in the
     materialization, then frontier after frontier *)
  let cone = delta_db () and frontier = ref (delta_db ()) in
  Matcher.Db.iter
    (fun p t ->
      if Matcher.Db.mem db p t && Matcher.Db.insert cone p t then
        ignore (Matcher.Db.insert !frontier p t))
    deletions;
  if Matcher.Db.total cone = 0 then
    { overdeleted = 0; rederived = 0; cone_rounds = 0 }
  else (
    let tracing = Observe.Trace.enabled trace in
    (* each phase is a span of its own kind: [--stats] and the serve
       [stats] op's [span.<kind>] histograms split a retract by phase *)
    let phase kind f = Observe.Trace.with_span trace ~kind "dred" f in
    (* phase 1: the cone, frontier by frontier; [next] collects the facts
       the current round adds to it *)
    let cone_rounds = ref 0 in
    phase "cone" (fun () ->
        while Matcher.Db.total !frontier > 0 do
          Stdlib.incr cone_rounds;
          let next = delta_db () in
          List.iter
            (fun (e, dps) ->
              List.iter
                (fun pred ->
                  match Matcher.Db.memset_opt !frontier pred with
                  | None -> ()
                  | Some d ->
                      ignore
                        (Matcher.iter_firings ~delta:(pred, d) ~dom e.plan db
                           (fun ~pos p ids ->
                             if
                               pos
                               && Matcher.Db.memset_mem
                                    (Matcher.Db.memset db p) ids
                             then
                               let t = Tuple.of_ids ids in
                               if Matcher.Db.insert cone p t then
                                 ignore (Matcher.Db.insert next p t))))
                dps)
            dprep.dr_with_dps;
          frontier := next
        done);
    (* phase 2: delete the cone *)
    let overdeleted = ref 0 in
    phase "delete" (fun () ->
        Matcher.Db.iter
          (fun p t -> if Matcher.Db.remove db p t then Stdlib.incr overdeleted)
          cone);
    (* phase 3: re-derivation seed *)
    let seed = delta_db () in
    phase "seed" (fun () ->
        Matcher.Db.iter
          (fun p t ->
            if Matcher.Db.mem edb p t then ignore (Matcher.Db.insert seed p t))
          cone;
        List.iter
          (fun (hp, gplan) ->
            match Matcher.Db.memset_opt cone hp with
            | None -> ()
            | Some c ->
                ignore
                  (Matcher.iter_firings ~delta:(dred_guard_pred hp, c) ~dom
                     gplan db (fun ~pos p ids ->
                       if
                         pos
                         && not
                              (Matcher.Db.memset_mem (Matcher.Db.memset db p)
                                 ids)
                       then
                         ignore
                           (Matcher.Db.insert seed p (Tuple.of_ids ids)))))
          dprep.dr_guards);
    (* phase 4: propagate the survivors *)
    let before = Matcher.Db.total db in
    phase "propagate" (fun () ->
        if Matcher.Db.total seed > 0 then
          ignore
            (seminaive ~trace ~initial:seed ~with_dps:dprep.dr_with_dps ~dom
               db));
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
      Instance.iter_facts
        (fun p t -> ignore (Matcher.Db.insert db p t))
        derived;
      loop (current :: acc))
  in
  loop []

type stats = { stages : int; facts_inferred : int }
