open Relational
open Datalog

type via = Materialized | Demand

type t = {
  program : Ast.program;
  prepared : Eval_util.prepared;
  dred : Eval_util.dred_prepared;
  db : Matcher.Db.t;
  edb : Matcher.Db.t;  (* the asserted facts, one set per predicate *)
  shared : string list;  (* the program's EDB predicates *)
  idb : string list;
  delta_preds : string list;
  demand : Magic.memo;  (* the demand path's rewrites, for the engine's life *)
  trace : Observe.Trace.ctx;
}

(* The engine is restricted to pure Datalog, so no plan ever consults
   the active domain ([Matcher.needs_dom] is false for every
   range-restricted positive rule): [create]'s [program_dom] is [[]]
   without a scan, and updates pass an empty domain directly. *)
let no_dom : Value.t list = []

let create ?(trace = Observe.Trace.null) program edb =
  Ast.check_datalog program;
  let prepared = Eval_util.prepare program in
  let db = Matcher.Db.of_instance ~trace edb in
  let dom =
    Eval_util.program_dom ~trace program (Eval_util.plans prepared) edb
  in
  ignore
    (Eval_util.seminaive_fixpoint_db ~trace prepared
       ~delta_preds:(Ast.idb program) ~dom db);
  {
    program;
    prepared;
    dred = Eval_util.prepare_dred prepared;
    db;
    edb = Matcher.Db.of_instance edb;
    shared = Ast.edb program;
    idb = Ast.idb program;
    demand = Magic.memo ();
    delta_preds =
      List.sort_uniq String.compare
        (Ast.idb program @ Ast.body_preds program);
    trace;
  }

let program t = t.program
let edb t = Matcher.Db.instance t.edb
let instance t = Matcher.Db.instance t.db

(* Requests read counts and arities straight from the Db's sets and
   never publish a relation, so no write has to copy a lent set. *)
let total t = Matcher.Db.total t.db

(* Updates must leave the engine consistent even when a batch is
   rejected, so arity mismatches are detected against the stored
   relations before any mutation. *)
let validate_arities t batch =
  Instance.fold
    (fun p rel () ->
      match (Relation.arity rel, Matcher.Db.arity t.db p) with
      | Some a, Some b when a <> b ->
          invalid_arg
            (Printf.sprintf "%s has arity %d, batch fact has arity %d" p b a)
      | _ -> ())
    batch ()

(* A write batch is a Db of its own, counting nothing: the facts an
   assert adds to the view, or the facts a retract withdraws from the
   base facts. *)
let write_batch batch keep =
  let d = Matcher.Db.of_instance Instance.empty in
  Instance.fold
    (fun p rel () ->
      Relation.unordered_iter
        (fun tup -> if keep p tup then ignore (Matcher.Db.insert d p tup))
        rel)
    batch ();
  d

let assert_facts t batch =
  validate_arities t batch;
  let added = ref 0 in
  let delta =
    write_batch batch (fun p tup ->
        if Matcher.Db.insert t.edb p tup then incr added;
        not (Matcher.Db.mem t.db p tup))
  in
  let fresh = Matcher.Db.total delta in
  let before = total t in
  let stages =
    Eval_util.seminaive_increment_db ~trace:t.trace t.prepared
      ~delta_preds:t.delta_preds ~dom:no_dom t.db delta
  in
  let derived = total t - before - fresh in
  (!added, derived, stages)

let retract_facts t batch =
  validate_arities t batch;
  let removed = ref 0 in
  let deletions =
    write_batch batch (fun p tup ->
        let gone = Matcher.Db.remove t.edb p tup in
        if gone then incr removed;
        gone)
  in
  let { Eval_util.overdeleted; rederived; cone_rounds = _ } =
    Eval_util.dred ~trace:t.trace t.dred ~edb:t.edb ~dom:no_dom t.db deletions
  in
  (!removed, overdeleted, rederived)

(* Materialized point lookup: constants probe a memoized hash index on
   their positions; repeated variables filter the candidates
   ({!Magic.query_filter}, the demand path's filter). This is
   the same answer set as the demand path — by construction of the
   magic rewriting, both agree with filtering the full fixpoint. *)
let query_materialized t (q : Ast.atom) =
  match Matcher.Db.arity t.db q.Ast.pred with
  | None -> Relation.empty
  | Some a ->
      if a <> List.length q.Ast.args then
        invalid_arg
          (Printf.sprintf "query %s: arity %d, stored relation has arity %d"
             q.Ast.pred (List.length q.Ast.args) a);
      let bindings =
        List.mapi (fun i a -> (i, a)) q.Ast.args
        |> List.filter_map (function
             | i, Ast.Cst v -> Some (i, v)
             | _, Ast.Var _ -> None)
      in
      let cands = Matcher.Db.lookup t.db q.Ast.pred bindings in
      (* index buckets hold distinct facts, carrying the constants *)
      Relation.of_distinct
        (match Magic.query_filter ~keyed:true q with
        | None -> cands
        | Some ok -> List.filter ok cands)

let query t ?(via = Materialized) q =
  match via with
  | Materialized -> query_materialized t q
  (* every write changes [t.edb], so a session kept between writes would
     rarely be asked twice: each demand query opens a fresh one, on a Db
     that reads the EDB predicates (and their indexes) from the engine's
     and every idb predicate from its asserted facts; it is dropped when
     the query returns. Its compiled magic programs are not: the
     engine's memo keeps them, one per binding pattern. *)
  | Demand ->
      let base =
        List.fold_left
          (fun i p -> Instance.set p (Matcher.Db.relation t.edb p) i)
          Instance.empty t.idb
      in
      Magic.ask
        (Magic.session_db ~trace:t.trace ~memo:t.demand t.program
           (Matcher.Db.sharing t.db t.shared base))
        q
