open Relational
module Ast = Datalog.Ast
module Matcher = Datalog.Matcher

type location = Local | At_peer of string | At_var of string

type lrule = { location : location; rule : Ast.rule }

type network = {
  peers : string list;
  programs : (string * lrule list) list;
  stores : (string * Instance.t) list;
}

type schedule = Round_robin | Random_sched of int

type outcome = {
  stores : (string * Instance.t) list;
  rounds : int;
  messages : int;
  quiescent : bool;
}

exception Bad_network of string

let bad fmt = Format.kasprintf (fun s -> raise (Bad_network s)) fmt

let check net =
  List.iter
    (fun (p, rules) ->
      if not (List.mem p net.peers) then bad "program installed at unknown peer %s" p;
      Ast.check_datalog_neg (List.map (fun r -> r.rule) rules);
      List.iter
        (fun r ->
          match r.location with
          | Local -> ()
          | At_peer q ->
              if not (List.mem q net.peers) then
                bad "rule at %s targets unknown peer %s" p q
          | At_var x ->
              if not (List.mem x (Ast.body_vars r.rule)) then
                bad "rule at %s: location variable %s not in body" p x)
        rules)
    net.programs;
  List.iter
    (fun (p, _) ->
      if not (List.mem p net.peers) then bad "store for unknown peer %s" p)
    net.stores

let run ?(schedule = Round_robin) ?(max_rounds = 10_000)
    ?(trace = Observe.Trace.null) net =
  check net;
  let tracing = Observe.Trace.enabled trace in
  (* each peer's store is a persistent indexed database: inbox ingestion
     and local derivations insert into it incrementally *)
  let stores : (string, Matcher.Db.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun p ->
      Hashtbl.replace stores p (Matcher.Db.of_instance ~trace Instance.empty))
    net.peers;
  List.iter
    (fun (p, i) -> Hashtbl.replace stores p (Matcher.Db.of_instance ~trace i))
    net.stores;
  let inbox : (string, (string * Tuple.t) Queue.t) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter (fun p -> Hashtbl.replace inbox p (Queue.create ())) net.peers;
  let messages = ref 0 in
  let rounds = ref 0 in
  let rng =
    match schedule with
    | Random_sched seed -> Some (Random.State.make [| seed |])
    | Round_robin -> None
  in
  let prepared =
    List.map
      (fun (p, rules) ->
        (p, List.map (fun r -> (r, Matcher.prepare r.rule)) rules))
      net.programs
  in
  let peer_order () =
    match rng with
    | None -> net.peers
    | Some rng ->
        let a = Array.of_list net.peers in
        for i = Array.length a - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let tmp = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- tmp
        done;
        Array.to_list a
  in
  (* activate one peer: ingest inbox, fire rules once; returns whether
     anything changed anywhere (locally or messages sent) *)
  let activate p =
    incr rounds;
    if tracing then Observe.Trace.incr trace "netlog.activations";
    let store = Hashtbl.find stores p in
    let changed = ref false in
    let q = Hashtbl.find inbox p in
    while not (Queue.is_empty q) do
      let pred, tup = Queue.pop q in
      if Matcher.Db.insert store pred tup then changed := true
    done;
    (match List.assoc_opt p prepared with
    | None -> ()
    | Some rules ->
        let plain = List.map (fun (r, _) -> r.rule) rules in
        let dom =
          Datalog.Eval_util.program_dom ~trace plain (List.map snd rules)
            (Matcher.Db.instance store)
        in
        let db = store in
        let derived = ref [] in
        List.iter
          (fun (lr, plan) ->
            let substs = Matcher.run ~dom plan db in
            List.iter
              (fun subst ->
                let _, facts =
                  Matcher.instantiate_heads subst lr.rule.Ast.head
                in
                List.iter
                  (fun (pos, pred, tup) ->
                    if pos then
                      let dest =
                        match lr.location with
                        | Local -> p
                        | At_peer q -> q
                        | At_var x -> (
                            match List.assoc_opt x subst with
                            | Some (Value.Sym s) -> s
                            | Some v ->
                                bad "location variable %s bound to %s" x
                                  (Value.to_string v)
                            | None -> bad "location variable %s unbound" x)
                      in
                      derived := (dest, pred, tup) :: !derived)
                  facts)
              substs)
          rules;
        List.iter
          (fun (dest, pred, tup) ->
            if dest = p then (
              if Matcher.Db.insert store pred tup then changed := true)
            else if not (Matcher.Db.mem (Hashtbl.find stores dest) pred tup)
            then (
              (* best-effort duplicate suppression; re-sends are harmless *)
              Queue.add (pred, tup) (Hashtbl.find inbox dest);
              incr messages;
              if tracing then (
                Observe.Trace.incr trace "netlog.messages";
                Observe.Trace.incr trace ("netlog.sent." ^ p);
                Observe.Trace.incr trace ("netlog.recv." ^ dest));
              changed := true))
          !derived);
    !changed
  in
  let quiescent = ref false in
  (try
     while not !quiescent do
       if !rounds >= max_rounds then raise Exit;
       let any =
         List.fold_left
           (fun acc p ->
             if !rounds >= max_rounds then acc
             else
               let c = activate p in
               acc || c)
           false (peer_order ())
       in
       if not any then quiescent := true
     done
   with Exit -> ());
  {
    stores =
      List.map
        (fun p -> (p, Matcher.Db.instance (Hashtbl.find stores p)))
        net.peers;
    rounds = !rounds;
    messages = !messages;
    quiescent = !quiescent;
  }

(* ------------------------------------------------------------------ *)

(* Bulk-synchronous evaluation: the network as a sharded evaluator.

   For monotone (negation- and ∀-free) programs the CALM observation
   says the outcome is schedule-independent — so no per-activation
   scheduling is needed at all. [run_bulk] treats each peer as one shard
   of a partitioned fixpoint and runs supersteps with the same
   derive/exchange structure as the shard-owned semi-naive driver:
   every peer fires its rules against its own store, local facts are
   inserted locally, remote facts are posted into a [Parallel.Exchange]
   cell (per-edge duplicate suppression replaces the scheduled run's
   best-effort inbox check), and a second phase drains every inbox. No
   peer ever waits on another inside a phase — coordination-free in the
   CALM sense; the only synchronisation is the superstep barrier.

   When the global pool is free, the two phases of each superstep run on
   its domains ([Pool.run_phases]): peer [i] is handled by worker
   [i mod nw] in BOTH phases, so each store (and its trace context) has
   a single writer, and exchange cells follow the Exchange ownership
   discipline exactly. The final stores are identical at every job
   count: each superstep fires against the stores as of the superstep
   start, and inserts are set-operations. *)

let monotone net =
  List.for_all
    (fun (_, rules) ->
      List.for_all
        (fun r ->
          r.rule.Ast.forall = []
          && List.for_all
               (function Ast.BNeg _ -> false | _ -> true)
               r.rule.Ast.body)
        rules)
    net.programs

let run_bulk ?(max_supersteps = 10_000) ?(trace = Observe.Trace.null) net =
  check net;
  if not (monotone net) then
    bad
      "run_bulk: bulk-synchronous supersteps are order-insensitive only for \
       monotone (negation-free) programs; use run";
  let tracing = Observe.Trace.enabled trace in
  let pool = Parallel.Pool.acquire () in
  Fun.protect
    ~finally:(fun () -> Option.iter Parallel.Pool.release pool)
  @@ fun () ->
  let nw = match pool with Some p -> Parallel.Pool.size p | None -> 1 in
  let peers = Array.of_list net.peers in
  let npeers = Array.length peers in
  let index = Hashtbl.create 8 in
  Array.iteri (fun i p -> Hashtbl.replace index p i) peers;
  (* worker-private trace contexts (worker 0 = the caller's): peer [i]
     always counts into context [i mod nw] *)
  let wctx =
    Array.init nw (fun w ->
        if w = 0 || not tracing then trace
        else Observe.Trace.make ~sinks:[] ())
  in
  let stores =
    Array.mapi
      (fun i p ->
        Matcher.Db.of_instance ~trace:wctx.(i mod nw)
          (Option.value (List.assoc_opt p net.stores) ~default:Instance.empty))
      peers
  in
  let prepared =
    Array.map
      (fun p ->
        match List.assoc_opt p net.programs with
        | None -> []
        | Some rules -> List.map (fun r -> (r, Matcher.prepare r.rule)) rules)
      peers
  in
  let ex = Parallel.Exchange.create npeers in
  let changed = Array.make nw false in
  let wmsgs = Array.make nw 0 in
  let supersteps = ref 0 in
  let derive w =
    let i = ref w in
    while !i < npeers do
      let self = !i in
      let p = peers.(self) in
      let store = stores.(self) in
      let wtr = wctx.(w) in
      (match prepared.(self) with
      | [] -> ()
      | rules ->
          let plain = List.map (fun (r, _) -> r.rule) rules in
          (* untraced: this runs on a pool worker *)
          let dom =
            Datalog.Eval_util.program_dom plain (List.map snd rules)
              (Matcher.Db.instance store)
          in
          let local = ref [] in
          List.iter
            (fun (lr, plan) ->
              let substs = Matcher.run ~dom plan store in
              List.iter
                (fun subst ->
                  let _, facts =
                    Matcher.instantiate_heads subst lr.rule.Ast.head
                  in
                  List.iter
                    (fun (pos, pred, tup) ->
                      if pos then
                        let dest =
                          match lr.location with
                          | Local -> p
                          | At_peer q -> q
                          | At_var x -> (
                              match List.assoc_opt x subst with
                              | Some (Value.Sym s) -> s
                              | Some v ->
                                  bad "location variable %s bound to %s" x
                                    (Value.to_string v)
                              | None -> bad "location variable %s unbound" x)
                        in
                        if dest = p then local := (pred, tup) :: !local
                        else
                          let j =
                            match Hashtbl.find_opt index dest with
                            | Some j -> j
                            | None -> bad "unknown destination peer %s" dest
                          in
                          if Parallel.Exchange.post ex ~src:self ~dst:j pred tup
                          then (
                            wmsgs.(w) <- wmsgs.(w) + 1;
                            if tracing then (
                              Observe.Trace.incr wtr "netlog.messages";
                              Observe.Trace.incr wtr ("netlog.sent." ^ p);
                              Observe.Trace.incr wtr ("netlog.recv." ^ dest))))
                    facts)
                substs)
            rules;
          List.iter
            (fun (pred, tup) ->
              if Matcher.Db.insert store pred tup then changed.(w) <- true)
            (List.rev !local));
      i := !i + nw
    done
  in
  let exchange w =
    let i = ref w in
    while !i < npeers do
      let self = !i in
      Parallel.Exchange.drain ex ~dst:self (fun ~src:_ ~pred ts ->
          List.iter
            (fun t ->
              if Matcher.Db.insert stores.(self) pred t then
                changed.(w) <- true)
            ts);
      i := !i + nw
    done
  in
  let quiescent = ref false in
  while (not !quiescent) && !supersteps < max_supersteps do
    incr supersteps;
    if tracing then Observe.Trace.incr trace "netlog.supersteps";
    Array.fill changed 0 nw false;
    (match pool with
    | Some pl -> Parallel.Pool.run_phases pl [| derive; exchange |]
    | None ->
        derive 0;
        exchange 0);
    if not (Array.exists Fun.id changed) then quiescent := true
  done;
  if tracing then
    for w = 1 to nw - 1 do
      Observe.Trace.merge_counters trace wctx.(w)
    done;
  {
    stores =
      Array.to_list
        (Array.mapi (fun i p -> (p, Matcher.Db.instance stores.(i))) peers);
    rounds = !supersteps;
    messages = Array.fold_left ( + ) 0 wmsgs;
    quiescent = !quiescent;
  }

let store outcome peer =
  match List.assoc_opt peer outcome.stores with
  | Some i -> i
  | None -> Instance.empty

let global outcome =
  List.fold_left
    (fun acc (peer, inst) ->
      Instance.fold
        (fun pred rel acc ->
          Instance.set (peer ^ "::" ^ pred) rel acc)
        inst acc)
    Instance.empty outcome.stores

let confluent ?schedules net =
  let schedules =
    match schedules with
    | Some s -> s
    | None ->
        Round_robin
        :: List.map (fun s -> Random_sched s) [ 1; 2; 3; 4; 5 ]
  in
  match List.map (fun s -> global (run ~schedule:s net)) schedules with
  | [] -> true
  | g :: gs -> List.for_all (Instance.equal g) gs
