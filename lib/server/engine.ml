open Relational
open Datalog

type via = Materialized | Demand | Magic
type maintenance = Dred | Counting

type t = {
  program : Ast.program;
  prepared : Eval_util.prepared;
  dred : Eval_util.dred_prepared;
  db : Matcher.Db.t;
  mutable edb : Instance.t;
  delta_preds : string list;
  trace : Observe.Trace.ctx;
  cache : Demand.Cache.t;
  mutable magic : Magic.session option;
  counting : Counting.t option;
      (* Some = counting maintenance: support counts ride along every
         update and retraction deletes exactly the zero-support facts *)
}

(* The engine is restricted to pure Datalog, so no plan ever consults
   the active domain ([Matcher.needs_dom] is false for every
   range-restricted positive rule): [create]'s [program_dom] is [[]]
   without a scan, and updates pass an empty domain directly. *)
let no_dom : Value.t list = []

let create ?(trace = Observe.Trace.null) ?(maintenance = Dred) program edb =
  Ast.check_datalog program;
  let prepared = Eval_util.prepare program in
  let db = Matcher.Db.of_instance ~trace edb in
  let dom =
    Eval_util.program_dom ~trace program (Eval_util.plans prepared) edb
  in
  ignore
    (Eval_util.seminaive_fixpoint_db ~trace prepared
       ~delta_preds:(Ast.idb program) ~dom db);
  let dred = Eval_util.prepare_dred prepared in
  let counting =
    match maintenance with
    | Dred -> None
    | Counting ->
        let c = Counting.create prepared dred in
        Counting.init c ~edb db;
        Some c
  in
  {
    program;
    prepared;
    dred;
    db;
    edb;
    delta_preds =
      List.sort_uniq String.compare
        (Ast.idb program @ Ast.body_preds program);
    trace;
    cache = Demand.Cache.create ();
    magic = None;
    counting;
  }

let maintenance t = match t.counting with None -> Dred | Some _ -> Counting

let program t = t.program
let edb t = t.edb
let instance t = Matcher.Db.instance t.db
let total t = Instance.total_facts (instance t)

(* Updates must leave the engine consistent even when a batch is
   rejected, so arity mismatches are detected against the stored
   relations before any mutation. *)
let validate_arities t batch =
  Instance.fold
    (fun p rel () ->
      match (Relation.arity rel, Relation.arity (Matcher.Db.relation t.db p)) with
      | Some a, Some b when a <> b ->
          invalid_arg
            (Printf.sprintf "%s has arity %d, batch fact has arity %d" p b a)
      | _ -> ())
    batch ()

(* every update invalidates the magic session (it is bound to a fixed
   base instance); the demand cache survives — its recorded answers key
   on the physical instance and flush by themselves *)
let invalidate t = t.magic <- None

let assert_facts t batch =
  validate_arities t batch;
  let added = ref 0 in
  let edb_added = ref [] in
  let delta =
    Instance.fold
      (fun p rel acc ->
        let news =
          Relation.fold
            (fun tup acc ->
              if not (Instance.mem_fact p tup t.edb) then (
                t.edb <- Instance.add_fact p tup t.edb;
                edb_added := (p, tup) :: !edb_added;
                incr added);
              if Matcher.Db.mem t.db p tup then acc else tup :: acc)
            rel []
        in
        match news with [] -> acc | _ -> (p, List.rev news) :: acc)
      batch []
  in
  let fresh = List.fold_left (fun n (_, ts) -> n + List.length ts) 0 delta in
  let before = total t in
  (* under counting maintenance, observe each propagation round's fresh
     facts so the new firings can be counted against the final db *)
  let rounds : (string * Tuple.t list) list list ref = ref [] in
  let on_delta =
    match t.counting with
    | None -> None
    | Some _ -> Some (fun d -> rounds := d :: !rounds)
  in
  let stages =
    match delta with
    | [] -> 0
    | _ ->
        snd
          (Eval_util.seminaive_increment_db ~trace:t.trace ?on_delta t.prepared
             ~delta_preds:t.delta_preds ~dom:no_dom t.db delta)
  in
  (match t.counting with
  | None -> ()
  | Some c ->
      (* merge the per-round deltas per predicate: rounds are disjoint
         (each round's facts are fresh), and the firing enumeration
         expects one binding per predicate *)
      let merged : (string, Tuple.t list ref) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (List.iter (fun (p, ts) ->
             match Hashtbl.find_opt merged p with
             | Some l -> l := List.rev_append ts !l
             | None -> Hashtbl.add merged p (ref ts)))
        !rounds;
      let news = Hashtbl.fold (fun p l acc -> (p, !l) :: acc) merged [] in
      Counting.on_assert c ~edb_added:!edb_added ~news t.db);
  let derived = total t - before - fresh in
  invalidate t;
  (!added, derived, stages)

let retract_facts t batch =
  validate_arities t batch;
  let removed = ref 0 in
  let deletions =
    Instance.fold
      (fun p rel acc ->
        let ds =
          Relation.fold
            (fun tup acc ->
              if Instance.mem_fact p tup t.edb then (
                t.edb <- Instance.remove_fact p tup t.edb;
                incr removed;
                tup :: acc)
              else acc)
            rel []
        in
        match ds with [] -> acc | _ -> (p, ds) :: acc)
      batch []
  in
  let a, b =
    match t.counting with
    | Some c ->
        let s = Counting.retract ~trace:t.trace c ~edb:t.edb t.db deletions in
        (s.Counting.deleted, s.Counting.confirmed)
    | None ->
        let { Eval_util.overdeleted; rederived; cone_rounds = _ } =
          Eval_util.dred ~trace:t.trace t.dred ~edb:t.edb ~dom:no_dom t.db
            deletions
        in
        (overdeleted, rederived)
  in
  invalidate t;
  (!removed, a, b)

let audit_counts t =
  match t.counting with
  | None -> []
  | Some c -> Counting.audit c ~edb:t.edb t.db

(* Materialized point lookup: constants probe a memoized hash index on
   their positions; repeated variables filter the candidates. This is
   the same answer set as the demand paths — by construction of the
   magic rewriting, all three agree with filtering the full fixpoint. *)
let query_materialized t (q : Ast.atom) =
  let rel = Matcher.Db.relation t.db q.Ast.pred in
  if Relation.is_empty rel then Relation.empty
  else (
    (match Relation.arity rel with
    | Some a when a <> List.length q.Ast.args ->
        invalid_arg
          (Printf.sprintf "query %s: arity %d, stored relation has arity %d"
             q.Ast.pred (List.length q.Ast.args) a)
    | _ -> ());
    let bindings =
      List.mapi (fun i a -> (i, a)) q.Ast.args
      |> List.filter_map (function
           | i, Ast.Cst v -> Some (i, v)
           | _, Ast.Var _ -> None)
    in
    let cands = Matcher.Db.lookup t.db q.Ast.pred bindings in
    (* positions sharing one variable must carry equal ids *)
    let var_groups =
      let tbl : (string, int list ref) Hashtbl.t = Hashtbl.create 4 in
      List.iteri
        (fun i -> function
          | Ast.Var x -> (
              match Hashtbl.find_opt tbl x with
              | Some l -> l := i :: !l
              | None -> Hashtbl.add tbl x (ref [ i ]))
          | Ast.Cst _ -> ())
        q.Ast.args;
      Hashtbl.fold
        (fun _ l acc -> match !l with _ :: _ :: _ -> !l :: acc | _ -> acc)
        tbl []
    in
    let matches tup =
      List.for_all
        (function
          | p0 :: rest ->
              List.for_all (fun p -> Tuple.id tup p = Tuple.id tup p0) rest
          | [] -> true)
        var_groups
    in
    Relation.of_list
      (if var_groups = [] then cands else List.filter matches cands))

let magic_session t =
  match t.magic with
  | Some s -> s
  | None ->
      let s = Magic.session ~trace:t.trace t.program t.edb in
      t.magic <- Some s;
      s

let query t ?(via = Materialized) q =
  match via with
  | Materialized -> query_materialized t q
  | Demand -> Demand.answer ~trace:t.trace ~cache:t.cache t.program t.edb q
  | Magic -> Magic.ask (magic_session t) q
