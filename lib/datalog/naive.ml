open Relational

type result = { instance : Instance.t; stages : int }

let eval ?(trace = Observe.Trace.null) p inst =
  Ast.check_datalog p;
  let prepared = Eval_util.prepare p in
  let dom = Eval_util.program_dom ~trace p (Eval_util.plans prepared) inst in
  let instance, stages = Eval_util.naive_fixpoint ~trace prepared ~dom inst in
  { instance; stages }

let answer ?trace p inst pred = Instance.find pred (eval ?trace p inst).instance
