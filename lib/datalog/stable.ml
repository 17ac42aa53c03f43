open Relational

(* GL(M): semi-naive least fixpoint with negatives checked against the
   fixed candidate M (one persistent database per application). *)
let gl_prepared prepared delta_preds dom inst context =
  let neg_db = Matcher.Db.of_instance context in
  fst (Eval_util.seminaive_fixpoint ~neg_db prepared ~delta_preds ~dom inst)

let gl p inst context =
  Ast.check_datalog_neg p;
  let prepared = Eval_util.prepare p in
  let dom = Eval_util.program_dom p (Eval_util.plans prepared) inst in
  gl_prepared prepared (Ast.idb p) dom inst context

let is_stable p inst m = Instance.equal (gl p inst m) m

let models ?limit ?(trace = Observe.Trace.null) p inst =
  let wf = Wellfounded.eval ~trace p inst in
  let unknowns =
    Instance.fold
      (fun pred r acc ->
        Relation.fold (fun t acc -> (pred, t) :: acc) r acc)
      (Wellfounded.unknown wf) []
  in
  if List.length unknowns > 20 then
    failwith
      (Printf.sprintf "Stable.models: %d unknown facts, search too large"
         (List.length unknowns));
  (* prepare once: the candidate enumeration applies GL up to 2^unknowns
     times over the same program and domain *)
  Ast.check_datalog_neg p;
  let prepared = Eval_util.prepare p in
  (* untraced: [Wellfounded.eval] above already computed this domain
     under its own span, and [Instance.adom] memoizes it on [inst] *)
  let dom = Eval_util.program_dom p (Eval_util.plans prepared) inst in
  let delta_preds = Ast.idb p in
  let tracing = Observe.Trace.enabled trace in
  if tracing then
    Observe.Trace.add trace "stable.unknowns" (List.length unknowns);
  (* Each candidate check is one GL fixpoint; up to 2^unknowns of them run
     here, so candidates are counted but their inner fixpoints are not
     span-traced (the counters still accumulate via the shared ctx only if
     threaded — deliberately not, to keep traces bounded). *)
  let stable_candidate m =
    if tracing then Observe.Trace.incr trace "stable.candidates_checked";
    Instance.equal (gl_prepared prepared delta_preds dom inst m) m
  in
  let out = ref [] in
  let n = ref 0 in
  let reached_limit () =
    match limit with Some l -> !n >= l | None -> false
  in
  let rec branch candidate = function
    | [] ->
        if (not (reached_limit ())) && stable_candidate candidate then (
          if tracing then Observe.Trace.incr trace "stable.models_found";
          out := candidate :: !out;
          incr n)
    | (pred, t) :: rest ->
        if not (reached_limit ()) then (
          branch candidate rest;
          branch (Instance.add_fact pred t candidate) rest)
  in
  branch wf.Wellfounded.true_facts unknowns;
  List.rev !out

let count p inst = List.length (models p inst)
