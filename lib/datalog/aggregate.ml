open Relational

type func = Count | Sum of string | Min of string | Max of string

type agg_rule = {
  pred : string;
  group_by : string list;
  func : func;
  body : Ast.blit list;
}

type layer = { rules : Ast.program; aggregates : agg_rule list }

exception Agg_error of string

let agg_error fmt = Format.kasprintf (fun s -> raise (Agg_error s)) fmt

(* The rule whose body matches enumerate an aggregate's inputs: its head
   lists the group-by variables, then the aggregated one. *)
let probe (a : agg_rule) =
  let probe_vars =
    a.group_by
    @ (match a.func with
      | Count -> []
      | Sum x | Min x | Max x -> [ x ])
  in
  let probe =
    {
      Ast.head =
        [ Ast.HPos (Ast.atom "agg__" (List.map (fun x -> Ast.var x) probe_vars)) ];
      body = a.body;
      forall = [];
    }
  in
  Ast.check_safe probe;
  Matcher.prepare probe

let eval_agg db dom ((a : agg_rule), plan) =
  (* collect satisfying substitutions of the body *)
  let substs = Matcher.run ~dom plan db in
  let groups : (Value.t list, Value.t list list) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun subst ->
      let get x =
        match List.assoc_opt x subst with
        | Some v -> v
        | None -> agg_error "aggregate variable %s not bound by the body" x
      in
      let key = List.map get a.group_by in
      let payload =
        match a.func with
        | Count -> []
        | Sum x | Min x | Max x -> [ get x ]
      in
      Hashtbl.replace groups key
        (payload :: (try Hashtbl.find groups key with Not_found -> [])))
    substs;
  Hashtbl.fold
    (fun key payloads acc ->
      let result =
        match a.func with
        | Count -> Value.Int (List.length payloads)
        | Sum _ ->
            Value.Int
              (List.fold_left
                 (fun s p ->
                   match p with
                   | [ Value.Int n ] ->
                       let s' = s + n in
                       (* native [+] wraps silently; two's-complement
                          overflow iff operands of equal sign yield a
                          result of the opposite sign *)
                       if s >= 0 = (n >= 0) && s' >= 0 <> (s >= 0) then
                         agg_error "sum overflow: %d + %d exceeds the native \
                                    integer range"
                           s n
                       else s'
                   | [ v ] ->
                       agg_error "sum over non-integer value %s"
                         (Value.to_string v)
                   | _ -> assert false)
                 0 payloads)
        | Min _ ->
            List.fold_left
              (fun best p ->
                match (best, p) with
                | None, [ v ] -> Some v
                | Some b, [ v ] ->
                    Some (if Value.compare v b < 0 then v else b)
                | _ -> best)
              None payloads
            |> Option.get
        | Max _ ->
            List.fold_left
              (fun best p ->
                match (best, p) with
                | None, [ v ] -> Some v
                | Some b, [ v ] ->
                    Some (if Value.compare v b > 0 then v else b)
                | _ -> best)
              None payloads
            |> Option.get
      in
      (a.pred, Tuple.of_list (key @ [ result ])) :: acc)
    groups []

let eval ?(trace = Observe.Trace.null) layers inst =
  let tracing = Observe.Trace.enabled trace in
  List.fold_left
    (fun current { rules; aggregates } ->
      let current =
        match rules with
        | [] -> current
        | _ ->
            (* each layer's rule set must stratify internally *)
            (Stratified.eval ~trace rules current).Stratified.instance
      in
      let probes = List.map (fun a -> (a, probe a)) aggregates in
      let dom =
        Eval_util.program_dom ~trace
          (rules
          @ List.map
              (fun a -> { Ast.head = [ Ast.HPos (Ast.atom a.pred []) ];
                          body = a.body; forall = [] })
              aggregates)
          (List.map snd probes) current
      in
      (* one indexed view shared by every aggregate of the layer *)
      let db = Matcher.Db.of_instance ~trace current in
      let agg_facts = List.concat_map (eval_agg db dom) probes in
      if tracing then (
        Observe.Trace.add trace "aggregate.rules" (List.length aggregates);
        Observe.Trace.add trace "aggregate.facts" (List.length agg_facts));
      List.fold_left
        (fun acc (pred, tup) -> Instance.add_fact pred tup acc)
        current agg_facts)
    inst layers

let answer ?trace layers inst pred = Instance.find pred (eval ?trace layers inst)
