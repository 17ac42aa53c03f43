open Relational
module Ast = Datalog.Ast
module Matcher = Datalog.Matcher

type successors = {
  changed : Instance.t list;
  bottom_applicable : bool;
}

(* Apply one grounded head to the instance, through a Db so that each
   written relation is copied once. The head is consistent (checked by
   the caller), so insertion/deletion order is irrelevant. *)
let apply_heads inst facts =
  let db = Matcher.Db.of_instance inst in
  List.iter
    (fun (pos, pred, tup) ->
      ignore
        (if pos then Matcher.Db.insert db pred tup
         else Matcher.Db.remove db pred tup))
    facts;
  Matcher.Db.instance db

let head_consistent facts =
  not
    (List.exists
       (fun (pos, pred, tup) ->
         pos
         && List.exists
              (fun (pos', pred', tup') ->
                (not pos') && pred = pred' && Tuple.equal tup tup')
              facts)
       facts)

(* Enumerate all applicable firings as (bottom, grounded head facts),
   given pre-compiled plans and an indexed database. *)
let firings_db prepared dom db =
  List.concat_map
    (fun (rule, plan) ->
      let substs = Matcher.run ~dom plan db in
      List.filter_map
        (fun subst ->
          let bottom, facts = Matcher.instantiate_heads subst rule.Ast.head in
          if head_consistent facts then Some (bottom, facts) else None)
        substs)
    prepared

let firings p inst =
  let prepared = List.map (fun r -> (r, Matcher.prepare r)) p in
  let dom =
    Datalog.Eval_util.program_dom p (List.map snd prepared) inst
  in
  firings_db prepared dom (Matcher.Db.of_instance inst)

let successors p inst =
  let fs = firings p inst in
  let bottom_applicable = List.exists (fun (b, _) -> b) fs in
  let nexts =
    List.filter_map
      (fun (bottom, facts) ->
        if bottom then None
        else
          let next = apply_heads inst facts in
          if Instance.equal next inst then None else Some next)
      fs
  in
  let changed = List.sort_uniq Instance.compare nexts in
  { changed; bottom_applicable }

let is_terminal p inst =
  let { changed; bottom_applicable } = successors p inst in
  changed = [] && not bottom_applicable

type outcome =
  | Terminal of { instance : Instance.t; steps : int }
  | Abandoned of { steps : int }

let run ~seed ?(fuel = 100_000) ?(trace = Observe.Trace.null) p inst =
  let rng = Random.State.make [| seed |] in
  let tracing = Observe.Trace.enabled trace in
  (* plans are compiled once; the walk mutates one indexed database,
     applying only the chosen firing at each step *)
  let prepared = List.map (fun r -> (r, Matcher.prepare r)) p in
  let db = Matcher.Db.of_instance ~trace inst in
  let changes_state facts =
    List.exists
      (fun (pos, pred, tup) ->
        if pos then not (Matcher.Db.mem db pred tup)
        else Matcher.Db.mem db pred tup)
      facts
  in
  let rec go steps =
    if steps >= fuel then
      raise
        (Fuel.Exhausted
           {
             engine = "nondet.walk";
             budget = fuel;
             instance = Matcher.Db.instance db;
           })
    else
      (* the state changes every step, so a plan that reads the domain
         rescans it; a range-restricted program never does *)
      let dom =
        Datalog.Eval_util.db_dom ~trace p (List.map snd prepared) db
      in
      (* candidate firings: state-changing or ⊥-deriving *)
      let candidates =
        List.filter_map
          (fun (bottom, facts) ->
            if bottom then Some None
            else if changes_state facts then Some (Some facts)
            else None)
          (firings_db prepared dom db)
      in
      if tracing then (
        Observe.Trace.incr trace "nondet.steps";
        Observe.Trace.add trace "nondet.candidates" (List.length candidates));
      match candidates with
      | [] -> Terminal { instance = Matcher.Db.instance db; steps }
      | _ -> (
          match List.nth candidates (Random.State.int rng (List.length candidates)) with
          | None ->
              if tracing then Observe.Trace.event trace "abandoned";
              Abandoned { steps = steps + 1 }
          | Some facts ->
              List.iter
                (fun (pos, pred, tup) ->
                  if pos then ignore (Matcher.Db.insert db pred tup)
                  else ignore (Matcher.Db.remove db pred tup))
                facts;
              go (steps + 1))
  in
  go 0

let run_until_terminal ~seed ?(attempts = 100) ?fuel ?trace p inst =
  let rec try_ k =
    if k >= attempts then None
    else
      match run ~seed:(seed + (1_000_003 * k)) ?fuel ?trace p inst with
      | Terminal { instance; _ } -> Some instance
      | Abandoned _ -> try_ (k + 1)
  in
  try_ 0
