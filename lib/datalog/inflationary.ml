open Relational

type strategy = Naive_loop | Delta_loop

type result = { instance : Instance.t; stages : int }

let eval ?(strategy = Delta_loop) ?(trace = Observe.Trace.null) p inst =
  Ast.check_datalog_neg p;
  let prepared = Eval_util.prepare p in
  let dom = Eval_util.program_dom ~trace p (Eval_util.plans prepared) inst in
  let instance, stages =
    match strategy with
    | Naive_loop -> Eval_util.naive_fixpoint ~trace prepared ~dom inst
    | Delta_loop ->
        Eval_util.seminaive_fixpoint ~trace prepared ~delta_preds:(Ast.idb p)
          ~dom inst
  in
  { instance; stages }

let trace p inst =
  Ast.check_datalog_neg p;
  let prepared = Eval_util.prepare p in
  let dom = Eval_util.program_dom p (Eval_util.plans prepared) inst in
  Eval_util.stage_trace prepared ~dom inst

let answer ?strategy ?trace p inst pred =
  Instance.find pred (eval ?strategy ?trace p inst).instance
