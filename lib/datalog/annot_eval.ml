open Relational

exception Unsupported of string

(* The shipped semirings are all positive (a ⊕ b = 0 ⟹ a = b = 0, no
   zero divisors), so the support of the annotated fixpoint IS the
   Boolean fixpoint: phase one runs the untouched set engines, phase
   two iterates annotations over the fixed universe. Nothing outside
   positive Datalog annotates — negation needs additive inverses no
   semiring here has. *)
let check_positive tag p =
  try Ast.check_datalog p
  with Ast.Check_error msg ->
    raise
      (Unsupported
         (Printf.sprintf
            "--annot %s needs the positive Datalog fragment: %s"
            (Semiring.name_of tag) msg))

type stats = {
  universe : int;
  derivations : int;
  rounds : int;
  forced : int;
  infinite : int;
  stages : int;
}

(* a numbering of facts: per predicate, a fact's id vector -> its
   number *)
type numbering = (string, int Tuple.KTbl.t) Hashtbl.t

type t = {
  sr : Semiring.t;
  instance : Instance.t;
  stats : stats;
  numbering : numbering;
  value : Semiring.v array;
}

(* The materialized derivation graph: the universe as a fact array
   (number ↔ (pred, tuple), and [numbering] back) and every (rule, body
   valuation) firing as (head number, body number array). One
   [iter_derivations] sweep per rule against the closed database
   enumerates each firing exactly once — no delta, no dedup set,
   scratch arrays resolved to numbers on the spot. *)
type graph = {
  nfacts : int;
  fact_pred : string array;
  fact_tup : Tuple.t array;
  numbering : numbering;
  firings : (int * int array) array;
}

let number (numbering : numbering) p ids =
  match Hashtbl.find_opt numbering p with
  | None -> None
  | Some tb -> Tuple.KTbl.find_opt tb ids

let build_graph prepared ~dom instance =
  let nfacts = Instance.total_facts instance in
  let fact_pred = Array.make nfacts "" in
  let fact_tup = Array.make nfacts (Tuple.of_ids [||]) in
  let numbering = Hashtbl.create 8 in
  let next = ref 0 in
  Instance.fold
    (fun p rel () ->
      let tb = Tuple.KTbl.create (max 16 (2 * Relation.cardinal rel)) in
      Hashtbl.replace numbering p tb;
      Relation.unordered_iter
        (fun t ->
          let i = !next in
          incr next;
          fact_pred.(i) <- p;
          fact_tup.(i) <- t;
          Tuple.KTbl.replace tb (Tuple.ids t) i)
        rel)
    instance ();
  let db = Matcher.Db.of_instance instance in
  let firings = ref [] in
  List.iter
    (fun (_rule, plan) ->
      ignore
        (Matcher.iter_derivations ~dom plan db
           (fun ~pos pred head_ids bodies ->
             (* the database is closed under the rules, so every head
                (and a fortiori every body fact) resolves *)
             if pos then
               match number numbering pred head_ids with
               | None -> ()
               | Some h ->
                   let body =
                     Array.map
                       (fun (bp, bids) ->
                         match number numbering bp bids with
                         | Some b -> b
                         | None -> raise Not_found)
                       bodies
                   in
                   firings := (h, body) :: !firings)
          : int))
    (Eval_util.rules prepared);
  { nfacts; fact_pred; fact_tup; numbering; firings = Array.of_list !firings }

(* Exact counting, no iteration: Kahn's scheme over the derivation
   graph. A firing completes when all its body facts are determined; a
   fact is determined when every firing deriving it has completed (its
   count is then the EDB contribution plus the sum of the completed
   firings' products — each a finite number of derivation trees). The
   facts never determined are exactly those on or downstream of a
   support cycle: such a fact admits derivation-tree pumping, so its
   count is ω by definition, not an iteration artifact. *)
let eval_count sr g base =
  let nf = Array.length g.firings in
  let value = Array.copy base in
  let pending_heads = Array.make g.nfacts 0 in
  let pending_bodies = Array.make nf 0 in
  let occurs = Array.make g.nfacts [] in
  Array.iteri
    (fun f (h, body) ->
      pending_heads.(h) <- pending_heads.(h) + 1;
      pending_bodies.(f) <- Array.length body;
      Array.iter (fun b -> occurs.(b) <- f :: occurs.(b)) body)
    g.firings;
  let queue = Queue.create () in
  let complete f =
    let h, body = g.firings.(f) in
    let prod =
      Array.fold_left
        (fun acc b -> sr.Semiring.times acc value.(b))
        sr.Semiring.one body
    in
    value.(h) <- sr.Semiring.plus value.(h) prod;
    pending_heads.(h) <- pending_heads.(h) - 1;
    if pending_heads.(h) = 0 then Queue.add h queue
  in
  (* body-less firings (program facts) complete immediately *)
  Array.iteri
    (fun f (_, body) -> if Array.length body = 0 then complete f)
    g.firings;
  Array.iteri (fun i p -> if p = 0 then Queue.add i queue) pending_heads;
  let determined = Array.make g.nfacts false in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    if not determined.(i) then (
      determined.(i) <- true;
      List.iter
        (fun f ->
          pending_bodies.(f) <- pending_bodies.(f) - 1;
          if pending_bodies.(f) = 0 then complete f)
        occurs.(i))
  done;
  let infinite = ref 0 in
  Array.iteri
    (fun i d ->
      if not d then (
        value.(i) <- Semiring.top Semiring.Count;
        incr infinite))
    determined;
  (value, !infinite)

(* Kleene iteration for the idempotent instances: Jacobi rounds
   v'(h) = base(h) ⊕ ⊕_firings ⊗ v(body) until a round changes
   nothing. Without divergence this stabilizes within [nfacts] rounds
   (MinPlus is Bellman–Ford; Why's truncated polynomials form a finite
   domain). The stabilization check: run up to [3·nfacts + 4] rounds
   and force any fact that still changed after round [nfacts] to
   {!Semiring.top} — for MinPlus those are exactly the facts fed by a
   negative-weight cycle (−∞); for Why a truncation chain still in
   motion collapses to the "bounds exceeded" polynomial. *)
let eval_kleene sr g base =
  let value = Array.copy base in
  let last_changed = Array.make g.nfacts 0 in
  let max_rounds = (3 * g.nfacts) + 4 in
  let round = ref 0 in
  let dirty = ref true in
  while !dirty && !round < max_rounds do
    incr round;
    dirty := false;
    let nv = Array.copy base in
    Array.iter
      (fun (h, body) ->
        let prod =
          Array.fold_left
            (fun acc b -> sr.Semiring.times acc value.(b))
            sr.Semiring.one body
        in
        nv.(h) <- sr.Semiring.plus nv.(h) prod)
      g.firings;
    for i = 0 to g.nfacts - 1 do
      if not (Semiring.equal_v nv.(i) value.(i)) then (
        dirty := true;
        last_changed.(i) <- !round;
        value.(i) <- nv.(i))
    done
  done;
  let forced = ref 0 in
  if !dirty then
    Array.iteri
      (fun i r ->
        if r > g.nfacts then (
          value.(i) <- Semiring.top sr.Semiring.tag;
          incr forced))
      last_changed;
  (value, !round, !forced)

let run ?(trace = Observe.Trace.null) tag program edb =
  check_positive tag program;
  let sr = Semiring.get tag in
  let prepared = Eval_util.prepare program in
  let dom =
    Eval_util.program_dom ~trace program (Eval_util.plans prepared) edb
  in
  (* phase one: the Boolean support, on the ordinary (possibly
     parallel) engines *)
  let instance, stages =
    Eval_util.seminaive_fixpoint ~trace prepared
      ~delta_preds:(Ast.idb program) ~dom edb
  in
  let tracing = Observe.Trace.enabled trace in
  (* phase two is sequential: annotations do not cross the sharded
     exchange, the explicit non-Boolean fallback *)
  if tag <> Semiring.Bool && Parallel.Pool.jobs () > 1 then
    Observe.Trace.incr trace "annot.par.fallbacks";
  let g, (value, rounds, forced, infinite) =
    if tag = Semiring.Bool then
      (* the set semantics IS the Boolean instance: no graph, no rounds,
         no numbering — [annotation] reads membership, so the --annot
         bool path stays byte-for-byte the plain engine run *)
      let g =
        {
          nfacts = Instance.total_facts instance;
          fact_pred = [||];
          fact_tup = [||];
          numbering = Hashtbl.create 1;
          firings = [||];
        }
      in
      (g, ([||], 0, 0, 0))
    else
      let g = build_graph prepared ~dom instance in
      let base =
        Array.init g.nfacts (fun i ->
            let p = g.fact_pred.(i) in
            let t = g.fact_tup.(i) in
            if Instance.mem_fact p t edb then Semiring.of_edb tag ~pred:p t
            else sr.Semiring.zero)
      in
      match tag with
      | Semiring.Count ->
          let value, infinite = eval_count sr g base in
          (g, (value, 0, 0, infinite))
      | _ ->
          let value, rounds, forced = eval_kleene sr g base in
          (g, (value, rounds, forced, 0))
  in
  let stats =
    {
      universe = Instance.total_facts instance;
      derivations = Array.length g.firings;
      rounds;
      forced;
      infinite;
      stages;
    }
  in
  if tracing then (
    Observe.Trace.add trace "annot.universe" stats.universe;
    Observe.Trace.add trace "annot.derivations" stats.derivations;
    Observe.Trace.add trace "annot.rounds" stats.rounds;
    Observe.Trace.add trace "annot.forced" stats.forced;
    Observe.Trace.add trace "annot.infinite" stats.infinite);
  { sr; instance; stats; numbering = g.numbering; value }

(* one probe of the numbering; Bool numbers nothing: there membership
   in the support is the annotation *)
let annotation (r : t) p tup =
  if r.sr.Semiring.tag = Semiring.Bool then
    if Instance.mem_fact p tup r.instance then r.sr.Semiring.one
    else r.sr.Semiring.zero
  else
    match number r.numbering p (Tuple.ids tup) with
    | Some i -> r.value.(i)
    | None -> r.sr.Semiring.zero
