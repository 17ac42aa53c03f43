open Relational
module Ast = Datalog.Ast
module Matcher = Datalog.Matcher

type tgd = Ast.rule

let check_error fmt =
  Format.kasprintf (fun s -> raise (Ast.Check_error s)) fmt

let check tgds =
  ignore (Ast.infer_schema tgds);
  List.iter
    (fun (r : Ast.rule) ->
      if r.Ast.forall <> [] then
        check_error "tgd with \xe2\x88\x80 quantifier";
      List.iter
        (function
          | Ast.HPos _ -> ()
          | _ -> check_error "tgd heads must be positive atoms")
        r.Ast.head;
      List.iter
        (function
          | Ast.BPos _ -> ()
          | _ -> check_error "tgd bodies must be positive atoms")
        r.Ast.body)
    tgds

let existential_vars = Ast.head_only_vars

let body_atoms (r : Ast.rule) =
  List.filter_map
    (function Ast.BPos a -> Some a | _ -> None)
    r.Ast.body

let head_atoms (r : Ast.rule) =
  List.filter_map Ast.atom_of_hlit r.Ast.head

let atom_vars (a : Ast.atom) =
  List.filter_map
    (function Ast.Var x -> Some x | Ast.Cst _ -> None)
    a.Ast.args

let is_linear tgds =
  List.for_all (fun r -> List.length (body_atoms r) = 1) tgds

let is_guarded tgds =
  List.for_all
    (fun r ->
      let bv = List.sort_uniq compare (Ast.body_vars r) in
      List.exists
        (fun a ->
          List.for_all (fun x -> List.mem x (atom_vars a)) bv)
        (body_atoms r))
    tgds

(* Weak acyclicity: position graph over (pred, index); normal edges from
   each universal variable's body positions to its head positions; special
   edges from each universal variable's body positions to every
   existential variable's head position in the same tgd (only when the
   universal variable also appears in the head, per the standard
   definition). Weakly acyclic iff no cycle goes through a special edge. *)
let weakly_acyclic tgds =
  let normal = Hashtbl.create 32 and special = Hashtbl.create 32 in
  let add tbl u v = Hashtbl.replace tbl (u, v) () in
  List.iter
    (fun r ->
      let ex = existential_vars r in
      let body_positions x =
        List.concat_map
          (fun (a : Ast.atom) ->
            List.filteri (fun _ _ -> true) a.Ast.args
            |> List.mapi (fun i t -> (i, t))
            |> List.filter_map (fun (i, t) ->
                   if t = Ast.Var x then Some (a.Ast.pred, i) else None))
          (body_atoms r)
      in
      let head_positions x =
        List.concat_map
          (fun (a : Ast.atom) ->
            List.mapi (fun i t -> (i, t)) a.Ast.args
            |> List.filter_map (fun (i, t) ->
                   if t = Ast.Var x then Some (a.Ast.pred, i) else None))
          (head_atoms r)
      in
      let universals =
        List.filter (fun x -> not (List.mem x ex)) (Ast.rule_vars r)
      in
      List.iter
        (fun x ->
          let bps = body_positions x in
          let hps = head_positions x in
          if hps <> [] then (
            List.iter (fun u -> List.iter (fun v -> add normal u v) hps) bps;
            (* special edges to every existential position *)
            List.iter
              (fun y ->
                List.iter
                  (fun u ->
                    List.iter (fun v -> add special u v) (head_positions y))
                  bps)
              ex))
        universals)
    tgds;
  (* cycle through a special edge: exists special u=>v with v ->* u *)
  let succs node =
    Hashtbl.fold
      (fun (u, v) () acc -> if u = node then v :: acc else acc)
      normal []
    @ Hashtbl.fold
        (fun (u, v) () acc -> if u = node then v :: acc else acc)
        special []
  in
  let reaches src dst =
    let seen = Hashtbl.create 16 in
    let rec go n =
      if n = dst then true
      else if Hashtbl.mem seen n then false
      else (
        Hashtbl.add seen n ();
        List.exists go (succs n))
    in
    go src
  in
  not
    (Hashtbl.fold
       (fun (u, v) () acc -> acc || reaches v u)
       special false)

type result = { instance : Instance.t; steps : int; nulls : int }

(* Is the tgd's head satisfiable in [db] under the (body) match σ?
   I.e. does some extension of σ to the existential variables make every
   head atom a fact? Without existential variables the head is fully
   ground under σ, so plain membership tests suffice. *)
let head_satisfied db subst (r : Ast.rule) =
  if existential_vars r = [] then
    List.for_all
      (fun a ->
        let p, t = Ast.ground_atom subst a in
        Matcher.Db.mem db p t)
      (head_atoms r)
  else
  let substituted =
    List.map
      (fun (a : Ast.atom) ->
        {
          a with
          Ast.args =
            List.map
              (fun t ->
                match t with
                | Ast.Var x -> (
                    match List.assoc_opt x subst with
                    | Some v -> Ast.Cst v
                    | None -> t)
                | Ast.Cst _ -> t)
              a.Ast.args;
        })
      (head_atoms r)
  in
  let probe =
    {
      Ast.head = [ Ast.HPos (Ast.atom "sat__" []) ];
      body = List.map (fun a -> Ast.BPos a) substituted;
      forall = [];
    }
  in
  Matcher.run (Matcher.prepare probe) db <> []

let chase ?(fuel = 10_000) ?(trace = Observe.Trace.null) tgds inst =
  check tgds;
  let tracing = Observe.Trace.enabled trace in
  let gen = Value.Gen.create () in
  let prepared = List.map (fun r -> (r, Matcher.prepare r)) tgds in
  let steps = ref 0 in
  (* one persistent database for the whole chase; firings insert into it
     and the indexes follow incrementally *)
  let db = Matcher.Db.of_instance ~trace inst in
  let pass_no = ref 0 in
  let rec pass () =
    if tracing then (
      Observe.Trace.open_span trace ~kind:"round" (string_of_int !pass_no);
      Stdlib.incr pass_no);
    (* snapshot this pass's triggers before applying any of them, so
       every rule matches against the pass-start state *)
    let triggers =
      List.map (fun ((r : Ast.rule), plan) -> (r, Matcher.run plan db)) prepared
    in
    let fired = ref false in
    let fired_count = ref 0 in
    let close_pass () =
      if tracing then (
        Observe.Trace.incr trace "fixpoint.rounds";
        Observe.Trace.add trace "chase.firings" !fired_count;
        Observe.Trace.close_span trace
          ~fields:[ Observe.Trace.fint "firings" !fired_count ]
          ())
    in
    List.iter
      (fun ((r : Ast.rule), substs) ->
        List.iter
          (fun subst ->
            (* recheck against the freshest state *)
            if not (head_satisfied db subst r) then (
              if !steps >= fuel then (
                close_pass ();
                raise
                  (Fuel.Exhausted
                     {
                       engine = "chase";
                       budget = fuel;
                       instance = Matcher.Db.instance db;
                     }));
              incr steps;
              fired := true;
              Stdlib.incr fired_count;
              let subst =
                List.fold_left
                  (fun s y -> (y, Value.Gen.fresh gen) :: s)
                  subst (existential_vars r)
              in
              List.iter
                (fun a ->
                  let p, t = Ast.ground_atom subst a in
                  ignore (Matcher.Db.insert db p t))
                (head_atoms r)))
          substs)
      triggers;
    close_pass ();
    if tracing then
      Observe.Trace.add trace "chase.nulls"
        (Value.Gen.count gen - Observe.Trace.counter trace "chase.nulls");
    if !fired then pass ()
  in
  pass ();
  {
    instance = Matcher.Db.instance db;
    steps = !steps;
    nulls = Value.Gen.count gen;
  }

type cq = { body : Ast.atom list; answer : string list }

let query_matches inst (atoms : Ast.atom list) answer =
  let probe =
    {
      Ast.head =
        [ Ast.HPos (Ast.atom "q__" (List.map (fun x -> Ast.Var x) answer)) ];
      body = List.map (fun a -> Ast.BPos a) atoms;
      forall = [];
    }
  in
  let db = Matcher.Db.of_instance inst in
  let substs = Matcher.run (Matcher.prepare probe) db in
  List.map
    (fun subst ->
      Tuple.of_list
        (List.map
           (fun x ->
             match List.assoc_opt x subst with
             | Some v -> v
             | None -> failwith "Chase: unbound answer variable")
           answer))
    substs

let certain_answers ?fuel ?trace tgds inst q =
  let chased = (chase ?fuel ?trace tgds inst).instance in
  let tuples = query_matches chased q.body q.answer in
  Relation.of_list
    (List.filter
       (fun t -> not (Tuple.exists Value.is_invented t))
       tuples)

let bcq ?fuel tgds inst atoms =
  let chased = (chase ?fuel tgds inst).instance in
  query_matches chased atoms [] <> []
