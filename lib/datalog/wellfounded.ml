open Relational

type truth = True | False | Unknown

type result = {
  true_facts : Instance.t;
  possible : Instance.t;
  rounds : int;
}

(* A(J): least fixpoint of the rules with negatives checked against the
   fixed context J, positives against the growing instance, starting from
   the input. Semi-naive iteration is sound here because within one A
   computation the negation context never changes — so each A(J) runs as
   a delta fixpoint over one persistent database. *)
let gl_operator ?(trace = Observe.Trace.null) prepared delta_preds dom inst
    context =
  let neg_db = Matcher.Db.of_instance context in
  fst
    (Eval_util.seminaive_fixpoint ~trace ~neg_db prepared ~delta_preds ~dom
       inst)

let sequence ?(trace = Observe.Trace.null) p inst =
  Ast.check_datalog_neg p;
  let prepared = Eval_util.prepare p in
  let dom = Eval_util.program_dom ~trace p (Eval_util.plans prepared) inst in
  let tracing = Observe.Trace.enabled trace in
  (* One alternating round = two applications of A: the first refines the
     overestimate, the second the underestimate. Each is a "phase" span. *)
  let a phase round context =
    if tracing then
      Observe.Trace.open_span trace ~kind:"phase"
        (Printf.sprintf "%s.%d" phase round);
    let r = gl_operator ~trace prepared (Ast.idb p) dom inst context in
    if tracing then
      Observe.Trace.close_span trace
        ~fields:[ Observe.Trace.fint "facts" (Instance.total_facts r) ]
        ();
    r
  in
  let rec loop under acc round =
    let over = a "over" round under in
    let under' = a "under" round over in
    if tracing then Observe.Trace.incr trace "wf.rounds";
    let acc = (under', over) :: acc in
    if Instance.equal under' under then List.rev acc
    else loop under' acc (round + 1)
  in
  loop inst [] 1

let alternating_sequence = sequence

let eval ?trace p inst =
  let seq = sequence ?trace p inst in
  let true_facts, possible = List.nth seq (List.length seq - 1) in
  { true_facts; possible; rounds = List.length seq }

let truth_of res pred tup =
  if Instance.mem_fact pred tup res.true_facts then True
  else if Instance.mem_fact pred tup res.possible then Unknown
  else False

let unknown res = Instance.diff res.possible res.true_facts
let is_total res = Instance.equal res.true_facts res.possible

let answer ?trace p inst pred =
  Instance.find pred (eval ?trace p inst).true_facts
