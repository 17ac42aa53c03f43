open Relational

type result = { instance : Instance.t; stages : int; invented : int }

(* A canonical key identifying one body instantiation of one rule, used to
   guarantee single firing. *)
let firing_key rule_idx subst =
  (rule_idx, List.sort compare subst)

let run ?(fuel = 10_000) ?(trace = Observe.Trace.null) p inst =
  Ast.check_invent p;
  let tracing = Observe.Trace.enabled trace in
  let gen = Value.Gen.create () in
  let prepared =
    List.mapi
      (fun i r ->
        (i, r, Matcher.prepare r, Ast.head_only_vars r, Eval_util.rule_label i r))
      p
  in
  let fired = Hashtbl.create 256 in
  let module VSet = Set.Make (Value) in
  (* one persistent database for the whole run; the active domain grows
     incrementally as facts (and invented values) are added *)
  let db = Matcher.Db.of_instance ~trace inst in
  let domset =
    ref
      (VSet.union
         (VSet.of_list (Ast.adom p))
         (VSet.of_list (Instance.adom inst)))
  in
  let rec loop stages =
    if stages >= fuel then
      raise
        (Fuel.Exhausted
           {
             engine = "invent";
             budget = fuel;
             instance = Matcher.Db.instance db;
           })
    else
      let dom = VSet.elements !domset in
      let additions = ref [] in
      if tracing then
        Observe.Trace.open_span trace ~kind:"round" (string_of_int stages);
      (* collect firings for every rule against the stage-start state
         before applying any of them: parallel-stage semantics *)
      List.iter
        (fun (i, rule, plan, new_vars, label) ->
          let substs = Matcher.run ~dom plan db in
          if tracing then
            Observe.Trace.add trace
              ("rule_firings." ^ label)
              (List.length substs);
          List.iter
            (fun subst ->
              let key = firing_key i subst in
              if not (Hashtbl.mem fired key) then (
                Hashtbl.add fired key ();
                let subst =
                  List.fold_left
                    (fun s x -> (x, Value.Gen.fresh gen) :: s)
                    subst new_vars
                in
                let _, facts =
                  Matcher.instantiate_heads subst rule.Ast.head
                in
                additions := facts @ !additions))
            substs)
        prepared;
      let changed = ref false in
      let inserted = ref 0 in
      List.iter
        (fun (pos, pr, t) ->
          if pos && Matcher.Db.insert db pr t then (
            changed := true;
            Stdlib.incr inserted;
            Array.iter
              (fun v -> domset := VSet.add v !domset)
              (Tuple.values t)))
        !additions;
      if tracing then (
        Observe.Trace.incr trace "fixpoint.rounds";
        Observe.Trace.gauge_max trace "fixpoint.delta_max" !inserted;
        Observe.Trace.add trace "fixpoint.delta_total" !inserted;
        Observe.Trace.add trace "invent.values"
          (Value.Gen.count gen - Observe.Trace.counter trace "invent.values");
        Observe.Trace.close_span trace
          ~fields:[ Observe.Trace.fint "delta" !inserted ]
          ());
      if not !changed then
        {
          instance = Matcher.Db.instance db;
          stages;
          invented = Value.Gen.count gen;
        }
      else loop (stages + 1)
  in
  loop 0

let answer ?fuel ?trace p inst pred =
  let r = Instance.find pred (run ?fuel ?trace p inst).instance in
  Relation.filter (fun t -> not (Tuple.exists Value.is_invented t)) r

let answer_exn ?fuel p inst pred =
  let r = Instance.find pred (run ?fuel p inst).instance in
  if Relation.exists (fun t -> Tuple.exists Value.is_invented t) r then
    failwith
      (Printf.sprintf
         "Datalog\xc2\xacnew: answer relation %s contains invented values" pred)
  else r
