open Relational

type strategy = First | Random of int | Recency | Specificity

type fired = {
  rule_index : int;
  asserted : (string * Tuple.t) list;
  retracted : (string * Tuple.t) list;
}

type result = { memory : Instance.t; cycles : int; trace : fired list }

let refraction = true

type candidate = {
  idx : int;
  rule : Ast.rule;
  subst : Ast.subst;
  adds : (string * Tuple.t) list;
  dels : (string * Tuple.t) list;
  matched : (string * Tuple.t) list;  (* positive body facts *)
  specificity : int;
}

let head_consistent adds dels =
  not
    (List.exists
       (fun (p, t) ->
         List.exists (fun (p', t') -> p = p' && Tuple.equal t t') dels)
       adds)

let candidates prepared dom db =
  List.concat_map
    (fun (idx, rule, plan) ->
      let substs = Matcher.run ~dom plan db in
      List.filter_map
        (fun subst ->
          let bottom, facts = Matcher.instantiate_heads subst rule.Ast.head in
          if bottom then None
          else
            let adds =
              List.filter_map
                (fun (pos, p, t) -> if pos then Some (p, t) else None)
                facts
            and dels =
              List.filter_map
                (fun (pos, p, t) -> if pos then None else Some (p, t))
                facts
            in
            if not (head_consistent adds dels) then None
            else
              let changes =
                List.exists (fun (p, t) -> not (Matcher.Db.mem db p t)) adds
                || List.exists (fun (p, t) -> Matcher.Db.mem db p t) dels
              in
              if not changes then None
              else
                let matched =
                  List.filter_map
                    (function
                      | Ast.BPos a -> Some (Ast.ground_atom subst a)
                      | _ -> None)
                    rule.Ast.body
                in
                Some
                  {
                    idx;
                    rule;
                    subst;
                    adds;
                    dels;
                    matched;
                    specificity = List.length rule.Ast.body;
                  })
        substs)
    prepared

let run ?(strategy = First) ?(max_cycles = 10_000)
    ?(trace = Observe.Trace.null) p inst =
  Ast.check_ndatalog p;
  let tracing = Observe.Trace.enabled trace in
  let prepared =
    List.mapi (fun i r -> (i, r, Matcher.prepare r)) p
  in
  let dom =
    Eval_util.program_dom ~trace p
      (List.map (fun (_, _, plan) -> plan) prepared)
      inst
  in
  let ages : (string * Tuple.t, int) Hashtbl.t = Hashtbl.create 64 in
  Instance.fold
    (fun pred r () ->
      Relation.iter (fun t -> Hashtbl.replace ages (pred, t) 0) r)
    inst ();
  let fired_memo : (int * Ast.subst * int, unit) Hashtbl.t =
    Hashtbl.create 256
  in
  let fact_age (p, t) = try Hashtbl.find ages (p, t) with Not_found -> 0 in
  let memo_key c =
    let epoch =
      List.fold_left (fun acc f -> max acc (fact_age f)) 0 c.matched
    in
    (c.idx, List.sort compare c.subst, epoch)
  in
  let rng =
    match strategy with
    | Random seed -> Some (Random.State.make [| seed |])
    | _ -> None
  in
  let choose cs =
    match strategy with
    | First -> List.nth_opt cs 0
    | Random _ ->
        let rng = Option.get rng in
        if cs = [] then None
        else Some (List.nth cs (Random.State.int rng (List.length cs)))
    | Recency ->
        List.fold_left
          (fun best c ->
            let rec_of c =
              List.fold_left (fun acc f -> max acc (fact_age f)) (-1) c.matched
            in
            match best with
            | None -> Some c
            | Some b -> if rec_of c > rec_of b then Some c else best)
          None cs
    | Specificity ->
        List.fold_left
          (fun best c ->
            match best with
            | None -> Some c
            | Some b -> if c.specificity > b.specificity then Some c else best)
          None cs
  in
  (* one persistent working memory for the whole run; each firing applies
     its retractions and assertions to the indexed database in place *)
  let db = Matcher.Db.of_instance ~trace inst in
  let rec cycle n fired_log =
    if n >= max_cycles then
      failwith
        (Printf.sprintf "Production.run: no quiescence within %d cycles"
           max_cycles)
    else
      let cs =
        candidates prepared dom db
        |> List.filter (fun c -> not (Hashtbl.mem fired_memo (memo_key c)))
      in
      if tracing then (
        Observe.Trace.incr trace "production.cycles";
        Observe.Trace.add trace "production.candidates" (List.length cs));
      match choose cs with
      | None ->
          {
            memory = Matcher.Db.instance db;
            cycles = n;
            trace = List.rev fired_log;
          }
      | Some c ->
          Hashtbl.replace fired_memo (memo_key c) ();
          List.iter (fun (pr, t) -> ignore (Matcher.Db.remove db pr t)) c.dels;
          List.iter (fun (pr, t) -> ignore (Matcher.Db.insert db pr t)) c.adds;
          List.iter (fun f -> Hashtbl.replace ages f (n + 1)) c.adds;
          cycle (n + 1)
            ({ rule_index = c.idx; asserted = c.adds; retracted = c.dels }
             :: fired_log)
  in
  cycle 0 []
