open Relational

exception Not_stratifiable of string

type result = { instance : Instance.t; strata : int; stages : int }

(* Stratified rules are single-headed (checked by Stratify). *)
let head_pred r =
  match r.Ast.head with
  | [ h ] -> (
      match Ast.atom_of_hlit h with
      | Some a -> a.Ast.pred
      | None -> assert false)
  | _ -> assert false

(* --- SCC waves ------------------------------------------------------- *)

(* Within one stratum, rules from different SCCs of the dependency graph
   never feed each other except acyclically (a cycle is one SCC, and
   cross-SCC edges inside a stratum are positive — a negative edge would
   have pushed the head into a later stratum). The least fixpoint of the
   stratum therefore decomposes along the component DAG: group the
   stratum's rules by head component, layer the groups into waves
   (every group's dependencies live in strictly earlier waves or earlier
   strata), and evaluate the groups of one wave independently — each
   from the same input instance — merging their answers at the wave
   boundary. Groups of one wave share no derived predicate, so the merge
   is a disjoint union and the result is the stratum's fixpoint exactly.

   [waves stratum] returns the groups in deterministic order: waves
   lowest first, groups within a wave by component index (a topological
   position, fixed by the program text, not by scheduling). *)
let waves comp_of edges stratum =
  let groups : (int, Ast.rule list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let c = try Hashtbl.find comp_of (head_pred r) with Not_found -> -1 in
      match Hashtbl.find_opt groups c with
      | Some l -> l := r :: !l
      | None -> Hashtbl.add groups c (ref [ r ]))
    stratum;
  if Hashtbl.length groups <= 1 then None
  else
    let gids =
      List.sort Int.compare (Hashtbl.fold (fun c _ acc -> c :: acc) groups [])
    in
    (* cross-component dependencies restricted to this stratum's groups *)
    let deps : (int, int list ref) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun { Depgraph.src; dst; _ } ->
        match (Hashtbl.find_opt comp_of src, Hashtbl.find_opt comp_of dst) with
        | Some cs, Some cd
          when cs <> cd && Hashtbl.mem groups cs && Hashtbl.mem groups cd -> (
            match Hashtbl.find_opt deps cd with
            | Some l -> if not (List.mem cs !l) then l := cs :: !l
            | None -> Hashtbl.add deps cd (ref [ cs ]))
        | _ -> ())
      edges;
    (* longest-path layering over the component DAG: components arrive
       in topological order (Depgraph.sccs is dependencies-first), so
       each group's dependencies are already placed *)
    let wave_of : (int, int) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun g ->
        let w =
          match Hashtbl.find_opt deps g with
          | None -> 0
          | Some ds ->
              List.fold_left
                (fun acc d ->
                  match Hashtbl.find_opt wave_of d with
                  | Some wd -> max acc (wd + 1)
                  | None -> acc)
                0 !ds
        in
        Hashtbl.add wave_of g w)
      gids;
    let nwaves = 1 + List.fold_left (fun a g -> max a (Hashtbl.find wave_of g)) 0 gids in
    let buckets = Array.make nwaves [] in
    List.iter
      (fun g ->
        let w = Hashtbl.find wave_of g in
        buckets.(w) <- List.rev !(Hashtbl.find groups g) :: buckets.(w))
      (List.rev gids);
    let ws = Array.to_list buckets in
    (* a chain of singleton waves has no independence to exploit: stay
       on the joint path, whose trace output matches a sequential run *)
    if List.for_all (fun w -> List.length w = 1) ws then None else Some ws

(* Evaluate one wave's groups from the same input instance and merge
   their (disjoint) derived predicates in group order. With more than
   one group and the global pool free, groups run on separate domains:
   each worker builds a private Db over the shared persistent input —
   nested fixpoints find the pool busy and run on their worker. Each
   group traces into a fork of [trace], joined back in group order, so
   its spans nest under the stratum like a sequential run's. *)
let eval_wave ~trace ~dom current groups =
  match groups with
  | [ rules ] ->
      let prepared = Eval_util.prepare rules in
      Eval_util.seminaive_fixpoint ~trace prepared
        ~delta_preds:(Ast.idb rules) ~dom current
  | _ ->
      let arr = Array.of_list groups in
      let n = Array.length arr in
      let ctxs = Array.init n (fun _ -> Observe.Trace.fork trace) in
      let outs = Array.make n None in
      let work i =
        let rules = arr.(i) in
        let prepared = Eval_util.prepare rules in
        outs.(i) <-
          Some
            (Eval_util.seminaive_fixpoint ~trace:ctxs.(i) prepared
               ~delta_preds:(Ast.idb rules) ~dom current)
      in
      (match Parallel.Pool.acquire () with
      | Some pool ->
          Fun.protect
            ~finally:(fun () -> Parallel.Pool.release pool)
            (fun () ->
              let nw = Parallel.Pool.size pool in
              Parallel.Pool.run pool (fun w ->
                  let i = ref w in
                  while !i < n do
                    work !i;
                    i := !i + nw
                  done))
      | None ->
          if Parallel.Pool.jobs () > 1 && not (Parallel.Pool.in_task ()) then
            Observe.Trace.incr trace "par.pool.fallbacks";
          for i = 0 to n - 1 do
            work i
          done);
      let next, stages =
        Array.to_list (Array.mapi (fun i o -> (arr.(i), Option.get o)) outs)
        |> List.fold_left
             (fun (acc, st) (rules, (out, s)) ->
               ( Instance.union acc (Instance.restrict (Ast.idb rules) out),
                 st + s ))
             (current, 0)
      in
      Array.iter (Observe.Trace.join trace) ctxs;
      (next, stages)

let eval ?(trace = Observe.Trace.null) p inst =
  match Stratify.stratify p with
  | Error msg -> raise (Not_stratifiable msg)
  | Ok { strata; _ } ->
      (* adom(P, K) is shared by all strata: no stratum can invent
         values, so the domain is fixed up front — and computed only if
         some stratum's plan reads it. *)
      let prepared_strata =
        List.map (fun stratum -> (stratum, Eval_util.prepare stratum)) strata
      in
      let dom =
        Eval_util.program_dom ~trace p
          (List.concat_map (fun (_, pr) -> Eval_util.plans pr) prepared_strata)
          inst
      in
      let tracing = Observe.Trace.enabled trace in
      (* SCC machinery for wave scheduling, consulted only when parallel
         evaluation is on; the joint per-stratum path is untouched at
         jobs = 1 so sequential runs are bit-for-bit what they were *)
      let wave_plan =
        if Parallel.Pool.jobs () > 1 then (
          let comp_of : (string, int) Hashtbl.t = Hashtbl.create 32 in
          List.iteri
            (fun i comp -> List.iter (fun q -> Hashtbl.add comp_of q i) comp)
            (Depgraph.sccs p);
          let edges = Depgraph.edges p in
          fun stratum -> waves comp_of edges stratum)
        else fun _ -> None
      in
      let instance, stages, _ =
        List.fold_left
          (fun (current, stages, i) (stratum, prepared) ->
            match stratum with
            | [] -> (current, stages, i + 1)
            | _ ->
                if tracing then
                  Observe.Trace.open_span trace ~kind:"stratum"
                    (string_of_int i)
                    ~fields:
                      [ Observe.Trace.fint "rules" (List.length stratum) ];
                let next, s =
                  match wave_plan stratum with
                  | Some ws ->
                      if tracing then
                        Observe.Trace.add trace "par.waves" (List.length ws);
                      List.fold_left
                        (fun (cur, st) groups ->
                          let cur', s = eval_wave ~trace ~dom cur groups in
                          (cur', st + s))
                        (current, 0) ws
                  | None ->
                      Eval_util.seminaive_fixpoint ~trace prepared
                        ~delta_preds:(Ast.idb stratum) ~dom current
                in
                if tracing then
                  Observe.Trace.close_span trace
                    ~fields:
                      [
                        Observe.Trace.fint "stages" s;
                        Observe.Trace.fint "facts"
                          (Instance.total_facts next);
                      ]
                    ();
                (next, stages + s, i + 1))
          (inst, 0, 0) prepared_strata
      in
      { instance; strata = List.length strata; stages }

let answer ?trace p inst pred = Instance.find pred (eval ?trace p inst).instance
