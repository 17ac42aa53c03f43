open Relational

exception Not_semipositive of string

type result = { instance : Instance.t; stages : int }

let eval ?(trace = Observe.Trace.null) p inst =
  Ast.check_datalog_neg p;
  if not (Stratify.is_semipositive p) then
    raise
      (Not_semipositive
         "program negates an idb predicate; semi-positive Datalog\xc2\xac \
          only negates edb predicates");
  let prepared = Eval_util.prepare p in
  let dom = Eval_util.program_dom ~trace p (Eval_util.plans prepared) inst in
  let instance, stages =
    Eval_util.seminaive_fixpoint ~trace prepared ~delta_preds:(Ast.idb p) ~dom
      inst
  in
  { instance; stages }

let answer ?trace p inst pred = Instance.find pred (eval ?trace p inst).instance
