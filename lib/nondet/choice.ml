open Relational
module Ast = Datalog.Ast
module Matcher = Datalog.Matcher

type crule = {
  rule : Ast.rule;
  choices : (string list * string list) list;
}

exception Invalid_choice of string

let check p =
  Ast.check_datalog (List.map (fun c -> c.rule) p);
  List.iter
    (fun c ->
      let vars = Ast.rule_vars c.rule in
      List.iter
        (fun (xs, ys) ->
          List.iter
            (fun v ->
              if not (List.mem v vars) then
                raise
                  (Invalid_choice
                     (Printf.sprintf "choice variable %s not in rule" v)))
            (xs @ ys))
        c.choices)
    p

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

let eval ~seed ?(trace = Observe.Trace.null) p inst =
  check p;
  let tracing = Observe.Trace.enabled trace in
  let rng = Random.State.make [| seed |] in
  let plain = List.map (fun c -> c.rule) p in
  let prepared =
    List.mapi (fun i c -> (i, c, Matcher.prepare c.rule)) p
  in
  let dom =
    Datalog.Eval_util.program_dom ~trace plain
      (List.map (fun (_, _, plan) -> plan) prepared)
      inst
  in
  (* committed FDs: (rule index, choice index, x̄ values) -> ȳ values *)
  let committed : (int * int * Value.t list, Value.t list) Hashtbl.t =
    Hashtbl.create 64
  in
  let compatible idx c subst =
    List.for_all
      (fun (ci, (xs, ys)) ->
        let key = List.map (fun x -> List.assoc x subst) xs in
        let want = List.map (fun y -> List.assoc y subst) ys in
        match Hashtbl.find_opt committed (idx, ci, key) with
        | None -> true
        | Some have -> have = want)
      (List.mapi (fun ci ch -> (ci, ch)) c.choices)
  in
  let commit idx c subst =
    List.iteri
      (fun ci (xs, ys) ->
        let key = List.map (fun x -> List.assoc x subst) xs in
        let want = List.map (fun y -> List.assoc y subst) ys in
        if not (Hashtbl.mem committed (idx, ci, key)) then
          Hashtbl.add committed (idx, ci, key) want)
      c.choices
  in
  (* one persistent database across rounds: each round matches against the
     round-start state, collects its additions separately, and absorbs them
     at the end so the indexes update incrementally *)
  let db = Matcher.Db.of_instance ~trace inst in
  let round_no = ref 0 in
  let rec loop () =
    if tracing then (
      Observe.Trace.open_span trace ~kind:"round" (string_of_int !round_no);
      Stdlib.incr round_no);
    let added = Matcher.Db.of_instance Instance.empty in
    let any = ref false in
    List.iter
      (fun (idx, c, plan) ->
        let substs = shuffle rng (Matcher.run ~dom plan db) in
        List.iter
          (fun subst ->
            if compatible idx c subst then (
              if tracing then Observe.Trace.incr trace "choice.commits";
              commit idx c subst;
              let _, facts = Matcher.instantiate_heads subst c.rule.Ast.head in
              List.iter
                (fun (pos, pr, t) ->
                  if
                    pos
                    && (not (Matcher.Db.mem db pr t))
                    && Matcher.Db.insert added pr t
                  then any := true)
                facts))
          substs)
      prepared;
    if tracing then (
      let d = Matcher.Db.total added in
      Observe.Trace.incr trace "fixpoint.rounds";
      Observe.Trace.gauge_max trace "fixpoint.delta_max" d;
      Observe.Trace.add trace "fixpoint.delta_total" d;
      Observe.Trace.close_span trace
        ~fields:[ Observe.Trace.fint "delta" d ]
        ());
    if !any then (
      Matcher.Db.absorb db (Matcher.Db.instance added);
      loop ())
    else Matcher.Db.instance db
  in
  loop ()

let answer ~seed ?trace p inst pred =
  Instance.find pred (eval ~seed ?trace p inst)

let respects_choices p result =
  List.for_all
    (fun c ->
      match c.rule.Ast.head with
      | [ Ast.HPos head ] ->
          let rel = Instance.find head.Ast.pred result in
          let positions vars =
            (* positions of the given variables among the head columns;
               choice variables not in the head are unchecked here *)
            List.filter_map
              (fun v ->
                let rec find i = function
                  | [] -> None
                  | Ast.Var x :: _ when x = v -> Some i
                  | _ :: rest -> find (i + 1) rest
                in
                find 0 head.Ast.args)
              vars
          in
          List.for_all
            (fun (xs, ys) ->
              let px = positions xs and py = positions ys in
              if List.length px <> List.length xs
                 || List.length py <> List.length ys
              then true (* choice over non-head variables: not checkable *)
              else
                let tbl = Hashtbl.create 16 in
                Relation.for_all
                  (fun t ->
                    let k = List.map (Tuple.get t) px in
                    let v = List.map (Tuple.get t) py in
                    match Hashtbl.find_opt tbl k with
                    | None ->
                        Hashtbl.add tbl k v;
                        true
                    | Some v' -> v = v')
                  rel)
            c.choices
      | _ -> true)
    p
