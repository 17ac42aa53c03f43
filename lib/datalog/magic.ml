open Relational
module Trace = Observe.Trace

let k_queries = Trace.key "magic.queries"
let k_memo_hits = Trace.key "magic.rewrite_memo_hits"
let k_rewritten = Trace.key "magic.rewritten_rules"
let k_answers = Trace.key "magic.answer_tuples"

type rewritten = {
  program : Ast.program;
  seed : string * Tuple.t;
  query_pred : string;
}

let adorned_name pred adornment = Printf.sprintf "%s__%s" pred adornment
let magic_name pred adornment = Printf.sprintf "m__%s__%s" pred adornment

(* Adornment of an atom given the set of bound variables: 'b' for constant
   or bound-variable positions, 'f' otherwise. *)
let adorn bound (a : Ast.atom) =
  String.concat ""
    (List.map
       (function
         | Ast.Cst _ -> "b"
         | Ast.Var x -> if List.mem x bound then "b" else "f")
       a.Ast.args)

let bound_args adornment (a : Ast.atom) =
  List.filteri (fun i _ -> adornment.[i] = 'b') a.Ast.args

let atom_vars (a : Ast.atom) =
  List.filter_map
    (function Ast.Var x -> Some x | Ast.Cst _ -> None)
    a.Ast.args

let rewrite p (query : Ast.atom) =
  Ast.check_datalog p;
  let idb = Ast.idb p in
  if not (List.mem query.Ast.pred idb) then
    raise
      (Ast.Check_error
         (Printf.sprintf "Magic.rewrite: %s is not an idb predicate"
            query.Ast.pred));
  let arity = Schema.arity_of query.Ast.pred (Ast.infer_schema p) in
  let given = List.length query.Ast.args in
  if given <> arity then
    raise
      (Ast.Check_error
         (Printf.sprintf "Magic.rewrite: %s has arity %d, query gives %d"
            query.Ast.pred arity given));
  let query_adornment = adorn [] query in
  let out_rules = ref [] in
  let done_adornments = Hashtbl.create 16 in
  let queue = Queue.create () in
  Queue.add (query.Ast.pred, query_adornment) queue;
  Hashtbl.add done_adornments (query.Ast.pred, query_adornment) ();
  let request pred adornment =
    if not (Hashtbl.mem done_adornments (pred, adornment)) then (
      Hashtbl.add done_adornments (pred, adornment) ();
      Queue.add (pred, adornment) queue)
  in
  while not (Queue.is_empty queue) do
    let pred, adornment = Queue.pop queue in
    let magic_atom_of (a : Ast.atom) ad =
      Ast.atom (magic_name a.Ast.pred ad) (bound_args ad a)
    in
    (* base facts of [pred] (an idb predicate may have stored facts of
       its own) answer the adorned predicate too, under its guard *)
    let stored =
      Ast.atom pred
        (List.init (String.length adornment) (fun i ->
             Ast.var (Printf.sprintf "X%d" i)))
    in
    out_rules :=
      Ast.rule
        (Ast.atom (adorned_name pred adornment) stored.Ast.args)
        [ Ast.BPos (magic_atom_of stored adornment); Ast.BPos stored ]
      :: !out_rules;
    List.iter
      (fun (r : Ast.rule) ->
        match r.Ast.head with
        | [ Ast.HPos head ] when head.Ast.pred = pred ->
            (* variables bound on entry: those at 'b' head positions *)
            let bound0 =
              List.concat
                (List.filteri
                   (fun i _ -> adornment.[i] = 'b')
                   (List.map
                      (function Ast.Var x -> [ x ] | Ast.Cst _ -> [])
                      head.Ast.args))
            in
            let head_magic = magic_atom_of head adornment in
            (* left-to-right SIPS over the body *)
            let _, rev_body =
              List.fold_left
                (fun (bound, acc) lit ->
                  match lit with
                  | Ast.BPos a when List.mem a.Ast.pred idb ->
                      let beta = adorn bound a in
                      request a.Ast.pred beta;
                      (* magic rule for this subgoal *)
                      out_rules :=
                        Ast.rule (magic_atom_of a beta)
                          (Ast.BPos head_magic :: List.rev acc)
                        :: !out_rules;
                      let a' =
                        Ast.atom (adorned_name a.Ast.pred beta) a.Ast.args
                      in
                      (bound @ atom_vars a, Ast.BPos a' :: acc)
                  | Ast.BPos a -> (bound @ atom_vars a, Ast.BPos a :: acc)
                  | other -> (bound, other :: acc))
                (bound0, []) r.Ast.body
            in
            (* guarded, adorned rule *)
            out_rules :=
              Ast.rule
                (Ast.atom (adorned_name pred adornment) head.Ast.args)
                (Ast.BPos head_magic :: List.rev rev_body)
              :: !out_rules
        | _ -> ())
      p
  done;
  let seed_pred = magic_name query.Ast.pred query_adornment in
  let seed_args =
    List.map
      (function
        | Ast.Cst v -> v
        | Ast.Var _ -> assert false (* bound positions are constants *))
      (bound_args query_adornment query)
  in
  {
    program = List.rev !out_rules;
    seed = (seed_pred, Tuple.of_list seed_args);
    query_pred = adorned_name query.Ast.pred query_adornment;
  }

(* The test a tuple of the query atom's predicate passes when it
   matches the atom, on interned ids: [query]'s constants at their
   positions, unless [keyed] (the candidates came from an index lookup
   on those positions), and one id at every position of a repeated
   variable — T(X, X) selects the diagonal, not all of T. [None] when
   there is nothing to test. *)
let query_filter ~keyed (query : Ast.atom) =
  let first = Hashtbl.create 4 in
  let consts = ref [] and repeats = ref [] in
  List.iteri
    (fun i -> function
      | Ast.Cst c ->
          if not keyed then consts := (i, Value.Intern.id c) :: !consts
      | Ast.Var x -> (
          match Hashtbl.find_opt first x with
          | Some p -> repeats := (i, p) :: !repeats
          | None -> Hashtbl.add first x i))
    query.Ast.args;
  match (!consts, !repeats) with
  | [], [] -> None
  | consts, repeats ->
      Some
        (fun t ->
          List.for_all (fun (i, id) -> Tuple.id t i = id) consts
          && List.for_all (fun (i, p) -> Tuple.id t i = Tuple.id t p) repeats)

(* --- query sessions ------------------------------------------------------ *)

(* A session holds the evaluation state across queries: one persistent
   [Matcher.Db] accumulating magic and adorned facts, plus memoized
   rewrites keyed by (predicate, adornment) — the rewritten program
   depends only on the binding pattern, never on the query's constants
   (those live in the seed fact alone). Reuse across queries is sound:
   adorned facts are genuine facts of their predicate (guards only
   restrict which instantiations fire), so earlier queries leave behind
   a valid partial fixpoint that later fixpoints extend incrementally —
   a repeat or overlapping query re-derives nothing it already holds.
   Sessions run pure Datalog, whose safe positive rules (and their
   rewrites) never read the active domain, so every plan runs with an
   empty one.

   A memo entry is a rewrite, its prepared plans and its idb predicates
   (the fixpoint's delta predicates). Nothing in it refers to a
   database, so sessions over one program may share a memo: the
   resident server opens a session per demand query and compiles each
   binding pattern once. *)
type memo =
  (string * string, rewritten * Eval_util.prepared * string list) Hashtbl.t

let memo () : memo = Hashtbl.create 8

type session = {
  sprogram : Ast.program;
  db : Matcher.Db.t;
  strace : Observe.Trace.ctx;
  rewrites : memo;
}

let session_db ?(trace = Observe.Trace.null) ?(memo = memo ()) p db =
  Ast.check_datalog p;
  { sprogram = p; db; strace = trace; rewrites = memo }

let session ?(trace = Observe.Trace.null) p inst =
  session_db ~trace p (Matcher.Db.of_instance ~trace inst)

let ask s (query : Ast.atom) =
  let tracing = Trace.enabled s.strace in
  Trace.incr_key s.strace k_queries;
  let ad = adorn [] query in
  let key = (query.Ast.pred, ad) in
  let rw, prepared, delta_preds =
    match Hashtbl.find_opt s.rewrites key with
    | Some cached ->
        Trace.incr_key s.strace k_memo_hits;
        cached
    | None ->
        let rw = rewrite s.sprogram query in
        if tracing then (
          Trace.add_key s.strace k_rewritten (List.length rw.program);
          Observe.Trace.event s.strace "magic.rewrite"
            ~fields:
              [
                Observe.Trace.fstr "query_pred" rw.query_pred;
                Observe.Trace.fint "rules" (List.length rw.program);
              ]);
        let cached =
          (rw, Eval_util.prepare rw.program, Ast.idb rw.program)
        in
        Hashtbl.add s.rewrites key cached;
        cached
  in
  (* the seed carries this query's constants; the memoized program is
     constant-free *)
  let seed_tup =
    Tuple.of_list
      (List.map
         (function Ast.Cst v -> v | Ast.Var _ -> assert false)
         (bound_args ad query))
  in
  ignore (Matcher.Db.insert s.db (fst rw.seed) seed_tup);
  ignore
    (Eval_util.seminaive_fixpoint_db ~trace:s.strace prepared ~delta_preds
       ~dom:[] s.db);
  let answers =
    let rel = Matcher.Db.relation s.db rw.query_pred in
    match query_filter ~keyed:false query with
    | None -> rel
    | Some ok -> Relation.filter ok rel
  in
  if tracing then Trace.add_key s.strace k_answers (Relation.cardinal answers);
  answers

let answer ?(trace = Observe.Trace.null) p inst (query : Ast.atom) =
  ask (session ~trace p inst) query
