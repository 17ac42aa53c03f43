open Relational

type event = On_insert of Ast.atom | On_delete of Ast.atom
type action = Insert of Ast.atom | Delete of Ast.atom
type mode = Immediate | Deferred

type rule = {
  name : string;
  event : event;
  condition : Ast.blit list;
  actions : action list;
  mode : mode;
}

type update = Ins of string * Tuple.t | Del of string * Tuple.t

type log_entry = {
  rule_name : string option;
  update : update;
  applied : bool;
}

type result = { instance : Instance.t; log : log_entry list; steps : int }

(* unify an event pattern against a concrete tuple *)
let match_event pattern (pred, tup) =
  let a = match pattern with On_insert a | On_delete a -> a in
  if a.Ast.pred <> pred || List.length a.Ast.args <> Tuple.arity tup then None
  else
    let rec go subst i = function
      | [] -> Some subst
      | Ast.Cst v :: rest ->
          if Value.equal v (Tuple.get tup i) then go subst (i + 1) rest
          else None
      | Ast.Var x :: rest -> (
          let v = Tuple.get tup i in
          match List.assoc_opt x subst with
          | Some w -> if Value.equal v w then go subst (i + 1) rest else None
          | None -> go ((x, v) :: subst) (i + 1) rest)
    in
    go [] 0 a.Ast.args

let subst_term subst = function
  | Ast.Var x as t -> (
      match List.assoc_opt x subst with
      | Some v -> Ast.Cst v
      | None -> t)
  | t -> t

let subst_atom subst a =
  { a with Ast.args = List.map (subst_term subst) a.Ast.args }

let subst_blit subst = function
  | Ast.BPos a -> Ast.BPos (subst_atom subst a)
  | Ast.BNeg a -> Ast.BNeg (subst_atom subst a)
  | Ast.BEq (s, t) -> Ast.BEq (subst_term subst s, subst_term subst t)
  | Ast.BNeq (s, t) -> Ast.BNeq (subst_term subst s, subst_term subst t)

(* evaluate a condition (with the event substitution already applied)
   against the current database, returning all extensions *)
let condition_matches db dom blits =
  let rule =
    { Ast.head = [ Ast.HPos (Ast.atom "trig__" []) ]; body = blits; forall = [] }
  in
  let plan = Matcher.prepare rule in
  Matcher.run ~dom plan db

let run ?(fuel = 10_000) ?(trace = Observe.Trace.null) rules inst
    transaction =
  let log = ref [] in
  let steps = ref 0 in
  let tracing = Observe.Trace.enabled trace in
  (* one persistent database for the whole transaction: inserts and
     deletes maintain the memoized indexes in place *)
  let state = Matcher.Db.of_instance ~trace inst in
  (* deferred queue of (rule, grounded actions) *)
  let deferred : (string * update list) Queue.t = Queue.create () in
  let dom () =
    (* active domain of the current state plus rule constants *)
    let module VSet = Set.Make (Value) in
    let consts =
      List.concat_map
        (fun r ->
          let atoms =
            (match r.event with On_insert a | On_delete a -> [ a ])
            @ List.filter_map
                (function
                  | Ast.BPos a | Ast.BNeg a -> Some a
                  | _ -> None)
                r.condition
          in
          List.concat_map
            (fun a ->
              List.filter_map
                (function Ast.Cst v -> Some v | Ast.Var _ -> None)
                a.Ast.args)
            atoms)
        rules
    in
    VSet.elements
      (VSet.union
         (VSet.of_list (Instance.adom (Matcher.Db.instance state)))
         (VSet.of_list consts))
  in
  let ground_actions rule_name subst actions =
    List.map
      (fun act ->
        match act with
        | Insert a ->
            let p, t = Ast.ground_atom subst a in
            Ins (p, t)
        | Delete a ->
            let p, t = Ast.ground_atom subst a in
            Del (p, t))
      actions
    |> fun us -> (rule_name, us)
  in
  (* apply one update; if it changes the state, trigger matching rules *)
  let rec apply_update rule_name u =
    let changed =
      match u with
      | Ins (p, t) -> Matcher.Db.insert state p t
      | Del (p, t) -> Matcher.Db.remove state p t
    in
    log := { rule_name; update = u; applied = changed } :: !log;
    if tracing then
      Observe.Trace.incr trace
        (if changed then "active.updates_applied" else "active.updates_noop");
    if changed then (
      incr steps;
      if !steps > fuel then
        raise
          (Fuel.Exhausted
             {
               engine = "active";
               budget = fuel;
               instance = Matcher.Db.instance state;
             });
      trigger u)
  and trigger u =
    List.iter
      (fun r ->
        let relevant =
          match (r.event, u) with
          | On_insert _, Ins (p, t) | On_delete _, Del (p, t) ->
              match_event r.event (p, t)
          | _ -> None
        in
        match relevant with
        | None -> ()
        | Some ev_subst ->
            let cond = List.map (subst_blit ev_subst) r.condition in
            let extensions = condition_matches state (dom ()) cond in
            if tracing then
              Observe.Trace.add trace
                ("active.triggers." ^ r.name)
                (List.length extensions);
            List.iter
              (fun ext ->
                let full = ext @ ev_subst in
                let name, updates = ground_actions (Some r.name) full r.actions in
                match r.mode with
                | Immediate ->
                    List.iter (apply_update name) updates
                | Deferred ->
                    Queue.add
                      ((match name with Some n -> n | None -> r.name), updates)
                      deferred)
              extensions)
      rules
  in
  (* 1. the transaction's own updates, with immediate cascading *)
  List.iter (fun u -> apply_update None u) transaction;
  (* 2. deferred processing until quiescence *)
  while not (Queue.is_empty deferred) do
    let name, updates = Queue.pop deferred in
    List.iter (fun u -> apply_update (Some name) u) updates
  done;
  { instance = Matcher.Db.instance state; log = List.rev !log; steps = !steps }
