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

(* every store as one instance, each predicate prefixed by its peer *)
let global_of stores =
  List.fold_left
    (fun acc (peer, inst) ->
      Instance.fold
        (fun pred rel acc -> Instance.set (peer ^ "::" ^ pred) rel acc)
        inst acc)
    Instance.empty stores

let run ?(schedule = Round_robin) ?(fuel = 10_000)
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
          Datalog.Eval_util.db_dom ~trace plain (List.map snd rules) store
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
  let snapshot () =
    List.map
      (fun p -> (p, Matcher.Db.instance (Hashtbl.find stores p)))
      net.peers
  in
  let rec loop () =
    let any =
      List.fold_left
        (fun acc p ->
          if !rounds >= fuel then
            raise
              (Fuel.Exhausted
                 {
                   engine = "netlog";
                   budget = fuel;
                   instance = global_of (snapshot ());
                 });
          activate p || acc)
        false (peer_order ())
    in
    if any then loop ()
  in
  loop ();
  { stores = snapshot (); rounds = !rounds; messages = !messages }

let store outcome peer =
  match List.assoc_opt peer outcome.stores with
  | Some i -> i
  | None -> Instance.empty

let global outcome = global_of outcome.stores

let confluent net =
  let outcome schedule = global (run ~schedule net) in
  let g = outcome Round_robin in
  List.for_all
    (fun s -> Instance.equal g (outcome (Random_sched s)))
    [ 1; 2; 3; 4; 5 ]
