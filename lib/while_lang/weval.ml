open Relational

type result = { instance : Instance.t; iterations : int }

(* A program with every query compiled to an algebra plan. Default-domain
   plans are instance-independent (the domain enters as an [Adom] leaf),
   so compiling once per program is sound across loop iterations. *)
type cstmt =
  | CAssign of string * Fo.plan
  | CCumulate of string * Fo.plan
  | CWhile_change of cstmt list
  | CWhile of Fo.plan * cstmt list  (** nullary sentence plan *)

let rec compile_stmt trace = function
  | Wast.Assign (r, { Wast.formula; vars }) ->
      CAssign (r, Fo.compile ~trace formula vars)
  | Wast.Cumulate (r, { Wast.formula; vars }) ->
      CCumulate (r, Fo.compile ~trace formula vars)
  | Wast.While_change body ->
      CWhile_change (List.map (compile_stmt trace) body)
  | Wast.While (cond, body) ->
      CWhile (Fo.compile ~trace cond [], List.map (compile_stmt trace) body)

let run ?(fuel = 100_000) ?(trace = Observe.Trace.null) ?profile
    ?(naive = false) p inst =
  Wast.check p;
  let iterations = ref 0 in
  (* one loop iteration from state [inst] *)
  let tick inst =
    incr iterations;
    if !iterations > fuel then
      raise
        (Fuel.Exhausted
           {
             engine = "while";
             budget = fuel;
             instance = inst;
           })
  in
  let instance =
    if naive then
      let eval_query inst { Wast.formula; vars } =
        Fo.eval_naive inst formula vars
      in
      let rec exec_stmt inst = function
        | Wast.Assign (r, q) -> Instance.set r (eval_query inst q) inst
        | Wast.Cumulate (r, q) ->
            Instance.set r
              (Relation.union (Instance.find r inst) (eval_query inst q))
              inst
        | Wast.While_change body ->
            let rec loop inst =
              tick inst;
              let next = exec_body inst body in
              if Instance.equal next inst then inst else loop next
            in
            loop inst
        | Wast.While (cond, body) ->
            let rec loop inst =
              if Fo.sentence_naive inst cond then (
                tick inst;
                loop (exec_body inst body))
              else inst
            in
            loop inst
      and exec_body inst body = List.fold_left exec_stmt inst body in
      exec_body inst p
    else
      let cp = List.map (compile_stmt trace) p in
      let rec exec_stmt inst = function
        | CAssign (r, pl) ->
            Instance.set r (Fo.run_plan ~trace ?profile inst pl) inst
        | CCumulate (r, pl) ->
            Instance.set r
              (Relation.union (Instance.find r inst)
                 (Fo.run_plan ~trace ?profile inst pl))
              inst
        | CWhile_change body ->
            let rec loop inst =
              tick inst;
              let next = exec_body inst body in
              if Instance.equal next inst then inst else loop next
            in
            loop inst
        | CWhile (cond, body) ->
            let rec loop inst =
              if
                not
                  (Relation.is_empty (Fo.run_plan ~trace ?profile inst cond))
              then (
                tick inst;
                loop (exec_body inst body))
              else inst
            in
            loop inst
      and exec_body inst body = List.fold_left exec_stmt inst body in
      exec_body inst cp
  in
  { instance; iterations = !iterations }

let answer ?fuel ?trace ?profile ?naive p inst pred =
  Instance.find pred (run ?fuel ?trace ?profile ?naive p inst).instance
