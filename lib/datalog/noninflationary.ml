open Relational

type policy = Pos_priority | Neg_priority | Noop | Error

type outcome =
  | Fixpoint of { instance : Instance.t; stages : int }
  | Diverged of { entered : int; period : int; states : Instance.t list }
  | Contradiction of { stage : int; pred : string; tuple : Tuple.t }

let apply_policy policy current pos neg =
  match policy with
  | Pos_priority ->
      (* delete (neg \ pos), insert pos *)
      Ok (Instance.union (Instance.diff current (Instance.diff neg pos)) pos)
  | Neg_priority ->
      Ok (Instance.diff (Instance.union current (Instance.diff pos neg)) neg)
  | Noop ->
      (* facts derived both ways keep their previous status *)
      let conflict =
        Instance.fold
          (fun p r acc ->
            Relation.fold
              (fun t acc ->
                if Instance.mem_fact p t neg then Instance.add_fact p t acc
                else acc)
              r acc)
          pos Instance.empty
      in
      let pos' = Instance.diff pos conflict
      and neg' = Instance.diff neg conflict in
      Ok (Instance.diff (Instance.union current pos') neg')
  | Error -> (
      let witness = ref None in
      Instance.fold
        (fun p r () ->
          Relation.iter
            (fun t ->
              if !witness = None && Instance.mem_fact p t neg then
                witness := Some (p, t))
            r)
        pos ();
      match !witness with
      | Some (p, t) -> Stdlib.Error (p, t)
      | None -> Ok (Instance.diff (Instance.union current pos) neg))

let prepared_step policy prepared dom current =
  let pos, neg = Eval_util.consequences_signed prepared current ~dom in
  apply_policy policy current pos neg

let step ?(policy = Pos_priority) p inst =
  Ast.check_datalog_negneg p;
  let prepared = Eval_util.prepare p in
  prepared_step policy prepared
    (Eval_util.program_dom p (Eval_util.plans prepared) inst)
    inst

let run ?(policy = Pos_priority) ?(max_stages = 10_000)
    ?(trace = Observe.Trace.null) p inst =
  Ast.check_datalog_negneg p;
  let prepared = Eval_util.prepare p in
  let dom = Eval_util.program_dom ~trace p (Eval_util.plans prepared) inst in
  let tracing = Observe.Trace.enabled trace in
  let module IMap = Map.Make (struct
    type t = Instance.t

    let compare = Instance.compare
  end) in
  let traced_step current stage =
    if tracing then (
      Observe.Trace.open_span trace ~kind:"round" (string_of_int stage);
      let r = prepared_step policy prepared dom current in
      Observe.Trace.incr trace "fixpoint.rounds";
      (match r with
      | Ok next ->
          (* non-inflationary: the state can shrink, so the "delta" is the
             symmetric difference with the previous state *)
          let d =
            Instance.total_facts (Instance.diff next current)
            + Instance.total_facts (Instance.diff current next)
          in
          Observe.Trace.gauge_max trace "fixpoint.delta_max" d;
          Observe.Trace.add trace "fixpoint.delta_total" d;
          Observe.Trace.close_span trace
            ~fields:[ Observe.Trace.fint "delta" d ]
            ()
      | Stdlib.Error (pred, _) ->
          Observe.Trace.close_span trace
            ~fields:[ Observe.Trace.fstr "contradiction" pred ]
            ());
      r)
    else prepared_step policy prepared dom current
  in
  let rec loop current seen history stage =
    if stage > max_stages then
      failwith
        (Printf.sprintf
           "Noninflationary.run: no fixpoint or cycle within %d stages"
           max_stages)
    else
      match traced_step current stage with
      | Stdlib.Error (pred, tuple) ->
          if tracing then
            Observe.Trace.event trace "contradiction"
              ~fields:
                [
                  Observe.Trace.fint "stage" stage;
                  Observe.Trace.fstr "pred" pred;
                ];
          Contradiction { stage; pred; tuple }
      | Ok next ->
          if Instance.equal next current then
            Fixpoint { instance = current; stages = stage }
          else (
            match IMap.find_opt next seen with
            | Some entered ->
                let cycle =
                  List.rev history
                  |> List.filteri (fun i _ -> i >= entered)
                in
                let period = stage + 1 - entered in
                if tracing then
                  Observe.Trace.event trace "diverged"
                    ~fields:
                      [
                        Observe.Trace.fint "entered" entered;
                        Observe.Trace.fint "period" period;
                      ];
                Diverged { entered; period; states = cycle }
            | None ->
                loop next
                  (IMap.add next (stage + 1) seen)
                  (next :: history) (stage + 1))
  in
  loop inst (IMap.singleton inst 0) [ inst ] 0

let eval ?policy ?trace p inst =
  match run ?policy ?trace p inst with
  | Fixpoint { instance; _ } -> instance
  | Diverged { period; _ } ->
      failwith
        (Printf.sprintf
           "Datalog\xc2\xac\xc2\xac program diverges (cycle of period %d)" period)
  | Contradiction { pred; _ } ->
      failwith
        (Printf.sprintf
           "Datalog\xc2\xac\xc2\xac program derived a contradiction on %s" pred)

let answer ?policy ?trace p inst pred =
  Instance.find pred (eval ?policy ?trace p inst)
