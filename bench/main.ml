(* Benchmark harness regenerating every evaluation artifact of the paper
   (see DESIGN.md §5 and EXPERIMENTS.md). One experiment per table/figure:

     e1  Figure 1: the expressiveness hierarchy, machine-checked
     e2  naive vs semi-naive evaluation (classic engine table)
     e3  Theorem 4.2 convergence: stratified = well-founded = inflationary
     e4  well-founded alternating fixpoint cost (win game scaled)
     e5  nondeterminism: 2^k orientations, poss/cert (§5)
     e6  while = Datalog¬¬ / fixpoint -> inflationary compilation (Thm 4.2)
     e7  order and expressiveness: evenness (Thm 4.7)
     e8  magic sets vs full semi-naive (§6)
     e9  Theorem 4.6: Turing completeness of Datalog¬new
     e10 stable models vs well-founded unknowns (§3.3)
     e11 ablation: delta loop vs naive loop (inflationary engine)
     e12 production-system conflict-resolution strategies
     e13 distributed evaluation and the CALM observation (§6)
     e14 monadic Datalog over trees: wrapper scaling (§6)
     e15 Datalog± restricted chase and certain answers (§6)
     e16 parallel evaluation: domain-pool jobs sweep on semi-naive TC
     e17 safe-range compilation: FO calculus and while, naive vs compiled
     e19 operator-profiling overhead, disabled vs enabled
     e21 resident serve: incremental maintenance vs recompute-from-scratch,
         a session's first write (create + one assert or retract, and
         each write alone), and steady-state writes by serve-mixed's rule
     e22 semiring annotations: Boolean guard, tropical
     e25 fact rendering: the sorted view and the full-instance render
     e36 fact loading: Instance.parse_facts on a social-shaped text,
         short and long value names

   `dune exec bench/main.exe` runs everything; pass experiment ids to
   select, or `bechamel` for the micro-benchmark kernels. *)
open Relational

(* --reps N: repeat each timed section N times and keep the fastest run
   (default 1). The recorded BENCH_engines.json numbers use --reps 3. *)
let reps = ref 1

(* Timing uses the observe layer's monotonic *wall* clock. [Sys.time]
   (the former source) is process-CPU time: under parallel domains it
   sums every worker's work, which would report a parallel run as slower
   than sequential even when the wall clock says otherwise. *)
let time_on fresh f =
  let rec go best k =
    if k = 0 then best
    else
      let x = fresh () in
      let t0 = Observe.Trace.now () in
      let r = f x in
      let dt = Observe.Trace.now () -. t0 in
      let best =
        match best with Some (_, b) when b <= dt -> best | _ -> Some (r, dt)
      in
      go best (k - 1)
  in
  match go None (max 1 !reps) with Some (r, t) -> (r, t) | None -> assert false

(* [time_on fresh f] times [f (fresh ())], rebuilding the argument untimed
   before every rep; [time] has nothing to rebuild. *)
let time f = time_on ignore f

(* [inst] with every relation rebuilt: the same facts without memoized
   join indexes, so a query over it runs cold (see Relation.index). *)
let fresh_copy inst () =
  Instance.fold
    (fun name r acc ->
      Instance.set name (Relation.of_distinct (Relation.to_list r)) acc)
    inst Instance.empty

let ms t = Printf.sprintf "%8.2f" (1000.0 *. t)

(* --- machine-readable timings (--json <file>) ----------------------- *)

(* Rows are appended by the experiments that feed the perf trajectory
   (e2, e8, e11) and dumped as a JSON array so future PRs can diff
   engine timings mechanically. Each row also carries a "metrics"
   object harvested from a second, untimed run under an enabled trace
   context (lib/observe): fixpoint rounds, max delta, index builds and
   memo hits — so a perf diff can tell algorithmic change apart from
   constant-factor change. *)
let json_rows : string list ref = ref []

let record ?(metrics = []) ?(ratios = []) ?annot ~experiment ~case ~n
    ~engine ~wall_ms ~stages ~facts () =
  let metrics_json =
    match
      List.map (fun (k, v) -> Printf.sprintf "%S: %d" k v) metrics
      @ List.map (fun (k, v) -> Printf.sprintf "%S: %.2f" k v) ratios
    with
    | [] -> ""
    | kvs -> Printf.sprintf ", \"metrics\": {%s}" (String.concat ", " kvs)
  in
  (* semiring rows carry the annotation domain; datalog-bench-diff keys
     on it so e22's bool/minplus rows stay distinct *)
  let annot_json =
    match annot with
    | None -> ""
    | Some a -> Printf.sprintf ", \"annot\": %S" a
  in
  (* every row carries the machine/configuration context it was measured
     under: the job count in force and the detected core count — so
     datalog-bench-diff can tell a genuine regression apart from a sweep
     recorded on a different machine (or at a different -j) *)
  let meta_json =
    Printf.sprintf ", \"meta\": {\"jobs\": %d, \"cores\": %d}"
      (Parallel.Pool.jobs ())
      (Domain.recommended_domain_count ())
  in
  json_rows :=
    Printf.sprintf
      "{\"experiment\": %S, \"case\": %S, \"n\": %d, \"engine\": %S, \
       \"wall_ms\": %.3f, \"stages\": %d, \"facts\": %d%s%s%s}"
      experiment case n engine wall_ms stages facts annot_json metrics_json
      meta_json
    :: !json_rows

(* Run [f] once more under an enabled (sink-free) trace context — outside
   any timed section — and harvest the counters that characterise the
   evaluation: fixpoint shape and index behaviour (see lib/observe). *)
let metric_keys =
  [ "fixpoint.rounds"; "fixpoint.delta_max"; "db.index_builds";
    "db.index_memo_hits"; "par.domains"; "par.tasks"; "par.exchange_ms";
    "par.exchanged_tuples"; "par.shard_skew"; "par.pool.fallbacks";
    "fo.plan.compiled"; "fo.plan.fallback_vars"; "fp.rounds"; "fp.fallback";
    "ra.join.probes"; "ra.index.builds"; "ra.index.hits"; "magic.queries";
    "magic.rewritten_rules"; "dred.batches"; "dred.overdeleted";
    "dred.rederived"; "dred.cone_rounds"; "annot.universe";
    "annot.derivations"; "annot.rounds"; "annot.forced"; "annot.infinite";
    "annot.par.fallbacks" ]

let collect_metrics f =
  let ctx = Observe.Trace.make ~sinks:[] () in
  ignore (f ctx);
  Observe.Trace.finish ctx;
  let counters =
    List.filter_map
      (fun k ->
        match Observe.Trace.counter ctx k with
        | 0 -> None
        | v -> Some (k, v))
      metric_keys
  in
  (* latency histograms ride along as p50/p99 (ns) so a perf diff can
     see distribution shifts, not just totals *)
  let hists =
    List.concat_map
      (fun (k, d) ->
        if d.Observe.Trace.n = 0 then []
        else
          [ (k ^ ".p50_ns", d.Observe.Trace.p50);
            (k ^ ".p99_ns", d.Observe.Trace.p99) ])
      (Observe.Trace.histograms ctx)
  in
  counters @ hists

let write_json path =
  let oc = open_out path in
  output_string oc "[\n  ";
  output_string oc (String.concat ",\n  " (List.rev !json_rows));
  output_string oc "\n]\n";
  close_out oc

let header title =
  Printf.printf "\n=== %s ===\n" title

let row fmt = Printf.printf fmt

let prog = Datalog.Parser.parse_program

(* shared programs *)
let tc_program =
  prog {|
    T(X, Y) :- G(X, Y).
    T(X, Y) :- G(X, Z), T(Z, Y).
  |}

let comp_tc_stratified =
  prog
    {|
    T(X, Y) :- G(X, Y).
    T(X, Y) :- G(X, Z), T(Z, Y).
    CT(X, Y) :- !T(X, Y).
  |}

let comp_tc_inflationary =
  prog
    {|
    T(X, Y) :- G(X, Y).
    T(X, Y) :- G(X, Z), T(Z, Y).
    old_T(X, Y) :- T(X, Y).
    old_T_except_final(X, Y) :- T(X, Y), T(X2, Z2), T(Z2, Y2), !T(X2, Y2).
    CT(X, Y) :- !T(X, Y), old_T(X2, Y2), !old_T_except_final(X2, Y2).
  |}

let win_program = prog "win(X) :- moves(X, Y), !win(Y)."
let orientation_program = prog "!G(X, Y) :- G(X, Y), G(Y, X)."

(* ---------------------------------------------------------------- E1 *)

let e1 () =
  header "E1 | Figure 1: relative expressive power, machine-checked";
  let checkmark b = if b then "yes" else "NO " in
  let edges = Graph_gen.random ~seed:3 8 14 in
  (* Datalog: TC is expressible; its complement is not (negation is
     syntactically absent). *)
  let tc_ok =
    Relation.equal
      (Datalog.Seminaive.answer tc_program edges "T")
      (Graph_gen.reference_tc (Instance.find "G" edges))
  in
  let datalog_rejects_negation =
    match Datalog.Ast.check_datalog comp_tc_stratified with
    | () -> false
    | exception Datalog.Ast.Check_error _ -> true
  in
  (* stratified: CT expressible; win program is out of the fragment *)
  let ct = Datalog.Stratified.answer comp_tc_stratified edges "CT" in
  let ct_ok = not (Relation.is_empty ct) in
  let win_unstratifiable = not (Datalog.Stratify.is_stratifiable win_program) in
  (* well-founded == inflationary(delay technique) == stratified on CT *)
  let wf_ct = Datalog.Wellfounded.answer comp_tc_stratified edges "CT" in
  let infl_ct = Datalog.Inflationary.answer comp_tc_inflationary edges "CT" in
  let convergence = Relation.equal ct wf_ct && Relation.equal ct infl_ct in
  (* well-founded handles win (3-valued) *)
  let wf_win = Datalog.Wellfounded.eval win_program (Graph_gen.paper_game ()) in
  let win_3valued = not (Datalog.Wellfounded.is_total wf_win) in
  (* Datalog¬¬ adds retraction: the flip-flop program diverges, which no
     inflationary program can do *)
  let flip =
    prog
      {|
      T(0) :- T(1).  !T(1) :- T(1).
      T(1) :- T(0).  !T(0) :- T(0).
    |}
  in
  let flip_diverges =
    match
      Datalog.Noninflationary.run flip
        (Instance.of_list [ ("T", [ [ Value.Int 0 ] ]) ])
    with
    | Datalog.Noninflationary.Diverged _ -> true
    | _ -> false
  in
  (* Datalog¬new: simulates a Turing machine; rejected by the
     invention-free checkers *)
  let tm_program = Turing.Tm_compile.compile Turing.Tm.parity in
  let tm_ok = Turing.Tm_compile.agrees_with_reference Turing.Tm.parity [ "1"; "1" ] in
  let invent_rejected_below =
    match Datalog.Ast.check_datalog_negneg tm_program with
    | () -> false
    | exception Datalog.Ast.Check_error _ -> true
  in
  row "  %-22s %-44s %s\n" "level" "witness" "holds";
  row "  %-22s %-44s %s\n" "Datalog" "computes TC; complement not expressible"
    (checkmark (tc_ok && datalog_rejects_negation));
  row "  %-22s %-44s %s\n" "stratified Datalog~"
    "computes complement-of-TC; rejects win" (checkmark (ct_ok && win_unstratifiable));
  row "  %-22s %-44s %s\n" "well-founded/infl."
    "= stratified on CT (Thm 4.2 convergence)" (checkmark convergence);
  row "  %-22s %-44s %s\n" "well-founded"
    "3-valued win on Example 3.2" (checkmark win_3valued);
  row "  %-22s %-44s %s\n" "Datalog~~"
    "flip-flop diverges (no inflationary analogue)" (checkmark flip_diverges);
  row "  %-22s %-44s %s\n" "Datalog~new"
    "simulates TMs; outside Datalog~~ syntax"
    (checkmark (tm_ok && invent_rejected_below));
  row "  (infl. < Datalog~~ iff ptime < pspace, Thm 4.5 — open)\n"

(* ---------------------------------------------------------------- E2 *)

let e2 () =
  header "E2 | naive vs semi-naive bottom-up evaluation (TC)";
  row "  %-16s %6s | %9s %9s %7s | %6s %6s\n" "graph" "|G|" "naive ms"
    "semi ms" "speedup" "stages" "|T|";
  List.iter
    (fun (name, n, inst) ->
      let g = Relation.cardinal (Instance.find "G" inst) in
      (* naive evaluation is O(rounds * full join) and takes minutes at
         n >= 1000; the sweep times semi-naive alone there *)
      let skip_naive = n >= 1000 in
      let rs, ts = time (fun () -> Datalog.Seminaive.eval tc_program inst) in
      let tfacts =
        Relation.cardinal (Instance.find "T" rs.Datalog.Seminaive.instance)
      in
      let semi_metrics =
        collect_metrics (fun trace ->
            Datalog.Seminaive.eval ~trace tc_program inst)
      in
      record ~experiment:"e2" ~case:name ~n ~engine:"seminaive"
        ~wall_ms:(1000. *. ts) ~stages:rs.Datalog.Seminaive.stages
        ~facts:tfacts ~metrics:semi_metrics ();
      if skip_naive then
        row "  %-16s %6d | %9s %s %7s | %6d %6d\n" name g "-" (ms ts) "-"
          rs.Datalog.Seminaive.stages tfacts
      else (
        let rn, tn = time (fun () -> Datalog.Naive.eval tc_program inst) in
        assert (
          Instance.equal rn.Datalog.Naive.instance
            rs.Datalog.Seminaive.instance);
        let naive_metrics =
          collect_metrics (fun trace ->
              Datalog.Naive.eval ~trace tc_program inst)
        in
        record ~experiment:"e2" ~case:name ~n ~engine:"naive"
          ~wall_ms:(1000. *. tn) ~stages:rn.Datalog.Naive.stages ~facts:tfacts
          ~metrics:naive_metrics ();
        row "  %-16s %6d | %s %s %6.1fx | %6d %6d\n" name g (ms tn) (ms ts)
          (tn /. ts) rs.Datalog.Seminaive.stages tfacts))
    [
      ("chain-40", 40, Graph_gen.chain 40);
      ("chain-80", 80, Graph_gen.chain 80);
      ("chain-160", 160, Graph_gen.chain 160);
      ("cycle-60", 60, Graph_gen.cycle 60);
      ("grid-10x10", 100, Graph_gen.grid 10 10);
      ("random-100x300", 100, Graph_gen.random ~seed:11 100 300);
      ("random-300x900", 300, Graph_gen.random ~seed:12 300 900);
      ("random-1000x5000", 1000, Graph_gen.random ~seed:13 1000 5000);
      ("tree-d8", 255, Graph_gen.binary_tree 8);
    ];
  row "  shape: semi-naive wins by a growing factor on long chains\n"

(* ---------------------------------------------------------------- E3 *)

let e3 () =
  header "E3 | Theorem 4.2: stratified = well-founded = inflationary";
  row "  %-16s | %9s %9s %9s | %s\n" "graph" "strat ms" "wf ms" "infl ms"
    "agree";
  List.iter
    (fun (name, inst) ->
      let s, ts =
        time (fun () -> Datalog.Stratified.answer comp_tc_stratified inst "CT")
      in
      let w, tw =
        time (fun () -> Datalog.Wellfounded.answer comp_tc_stratified inst "CT")
      in
      let i, ti =
        time (fun () ->
            Datalog.Inflationary.answer comp_tc_inflationary inst "CT")
      in
      row "  %-16s | %s %s %s | %b\n" name (ms ts) (ms tw) (ms ti)
        (Relation.equal s w && Relation.equal s i))
    [
      ("random-8x14", Graph_gen.random ~seed:5 8 14);
      ("random-10x20", Graph_gen.random ~seed:6 10 20);
      ("random-12x30", Graph_gen.random ~seed:7 12 30);
      ("chain-12", Graph_gen.chain 12);
    ];
  row "  shape: all agree; the inflationary encoding pays heavily for \
       detecting the\n  fixpoint from inside (the old_T_except_final triple \
       join of Example 4.3)\n"

(* ---------------------------------------------------------------- E4 *)

let e4 () =
  header "E4 | well-founded alternating fixpoint on the win game";
  row "  %-16s %6s | %6s %6s %7s %6s | %9s\n" "moves" "|E|" "true" "false"
    "unknown" "rounds" "time ms";
  List.iter
    (fun (name, n, inst) ->
      let res, t = time (fun () -> Datalog.Wellfounded.eval win_program inst) in
      let truth =
        Relation.cardinal (Instance.find "win" res.Datalog.Wellfounded.true_facts)
      in
      let poss =
        Relation.cardinal (Instance.find "win" res.Datalog.Wellfounded.possible)
      in
      let unknown = poss - truth in
      let falses = n - poss in
      row "  %-16s %6d | %6d %6d %7d %6d | %s\n" name
        (Relation.cardinal (Instance.find "moves" inst))
        truth falses unknown res.Datalog.Wellfounded.rounds (ms t))
    [
      (let i = Graph_gen.game_chain 20 in ("chain-20", 20, i));
      (let i = Graph_gen.game_chain 40 in ("chain-40", 40, i));
      (let n = 30 in
       ("random-30", n, Graph_gen.random ~name:"moves" ~seed:21 n (2 * n)));
      (let n = 60 in
       ("random-60", n, Graph_gen.random ~name:"moves" ~seed:22 n (2 * n)));
      (let n = 120 in
       ("random-120", n, Graph_gen.random ~name:"moves" ~seed:23 n (2 * n)));
    ];
  row "  shape: a handful of alternation rounds; cost grows with |moves|\n"

(* ---------------------------------------------------------------- E5 *)

let e5 () =
  header "E5 | nondeterminism: orientations of k two-cycles (2^k outcomes)";
  row "  %2s | %9s %8s | %10s | %6s %6s\n" "k" "terminals" "expected"
    "enum ms" "|poss|" "|cert|";
  List.iter
    (fun k ->
      let inst = Graph_gen.two_cycles k in
      let stats, t =
        time (fun () -> Nondet.Enumerate.effect orientation_program inst)
      in
      let poss = Nondet.Posscert.poss orientation_program inst in
      let cert = Nondet.Posscert.cert orientation_program inst in
      let terminals = List.length stats.Nondet.Enumerate.terminals in
      assert (terminals = 1 lsl k);
      row "  %2d | %9d %8d | %s | %6d %6d\n" k terminals (1 lsl k) (ms t)
        (Relation.cardinal (Instance.find "G" poss))
        (Relation.cardinal (Instance.find "G" cert)))
    [ 1; 2; 3; 4; 5; 6; 7 ];
  row "  shape: exponential effect relation; poss keeps all edges, cert none\n"

(* ---------------------------------------------------------------- E6 *)

let e6 () =
  header "E6 | while = fixpoint loops -> inflationary Datalog~ (Thm 4.2)";
  let good_query =
    {
      While_lang.Wast.formula =
        Fo.Forall
          ( [ "y" ],
            Fo.Implies
              ( Fo.Atom ("G", [ Fo.Var "y"; Fo.Var "x" ]),
                Fo.Atom ("good", [ Fo.Var "y" ]) ) );
      vars = [ "x" ];
    }
  in
  let while_prog =
    [ While_lang.Wast.While_change [ While_lang.Wast.Cumulate ("good", good_query) ] ]
  in
  row "  %-16s | %10s %12s | %s\n" "graph" "while ms" "compiled ms" "agree";
  List.iter
    (fun (name, inst) ->
      let w, tw =
        time (fun () -> While_lang.Weval.answer while_prog inst "good")
      in
      let c, tc =
        time (fun () ->
            While_lang.Compile.run_loop ~sources:[ ("G", 2) ] ~rel:"good"
              good_query inst)
      in
      row "  %-16s | %s %s    | %b\n" name (ms tw) (ms tc) (Relation.equal w c))
    [
      ("chain-8", Graph_gen.chain 8);
      ("tree-d3", Graph_gen.binary_tree 3);
      ("cycle+tail", Instance.parse_facts "G(a,b). G(b,a). G(b,c). G(c,d).");
      ("random-10x18", Graph_gen.random ~seed:31 10 18);
    ];
  (* divergence: while programs (= Datalog¬¬, Thm 4.5 context) can loop *)
  let flip =
    [
      While_lang.Wast.While
        ( Fo.True,
          [
            While_lang.Wast.Assign
              ( "R",
                {
                  While_lang.Wast.formula = Fo.Not (Fo.Atom ("R", [ Fo.Var "x" ]));
                  vars = [ "x" ];
                } );
          ] );
    ]
  in
  (match While_lang.Weval.run ~fuel:64 flip (Instance.parse_facts "S(a).") with
  | exception Fuel.Exhausted _ ->
      row "  while flip-flop diverges (detected by fuel): yes\n"
  | _ -> row "  while flip-flop diverges: NO\n");
  row "  shape: compiled inflationary program agrees with the while \
       evaluator\n"

(* ---------------------------------------------------------------- E7 *)

let e7 () =
  header "E7 | Theorem 4.7: evenness needs order";
  (* evenness of a unary relation, with order: walk the succ chain *)
  let parity_prog =
    prog
      {|
      odd(X) :- first(X).
      even(X) :- odd(Y), succ(Y, X).
      odd(X) :- even(Y), succ(Y, X).
      is_even() :- last(X), even(X).
    |}
  in
  row "  %3s | %8s %8s | %s\n" "n" "even?" "correct" "generic (renaming \
       commutes)";
  List.iter
    (fun n ->
      let inst =
        Instance.of_list
          [ ("P", List.init n (fun i -> [ Value.Sym (Printf.sprintf "e%d" i) ])) ]
      in
      let ordered = Order.adjoin ~include_lt:false inst in
      let res = Datalog.Seminaive.answer parity_prog ordered "is_even" in
      let says_even = not (Relation.is_empty res) in
      (* genericity check without order: rename values, run TC-like query,
         answers commute with the renaming *)
      let rename v =
        match v with
        | Value.Sym s -> Value.Sym (s ^ "_renamed")
        | other -> other
      in
      let q = prog "Q(X) :- P(X)." in
      let direct =
        Instance.find "Q"
          (Datalog.Seminaive.eval q (Instance.map_values rename inst)).Datalog.Seminaive.instance
      in
      let routed =
        Relation.map
          (fun t -> Tuple.make (Array.map rename (Tuple.values t)))
          (Datalog.Seminaive.answer q inst "Q")
      in
      let generic = Relation.equal direct routed in
      row "  %3d | %8b %8b | %b\n" n says_even (n mod 2 = 0) generic;
      assert (says_even = (n mod 2 = 0)))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  row "  without order every generic program treats the n elements \
       symmetrically,\n";
  row "  so no invention-free deterministic language expresses evenness \
       (§4.4)\n"

(* ---------------------------------------------------------------- E8 *)

let e8 () =
  header "E8 | magic sets vs full semi-naive (point reachability)";
  (* Left-recursive TC: with the query's first argument bound, the magic
     set stays {src} and only T(src, _) facts are derived. The
     right-recursive variant would propagate bindings to every suffix —
     rule form matters for magic, as the classic literature stresses. *)
  let tc_program =
    prog {|
      T(X, Y) :- G(X, Y).
      T(X, Y) :- T(X, Z), G(Z, Y).
    |}
  in
  row "  %-16s | %10s %10s %7s | %8s %8s | %s\n" "graph" "full ms" "magic ms"
    "speedup" "full |T|" "magic facts" "agree";
  List.iter
    (fun (name, inst, src) ->
      let query =
        Datalog.Ast.atom "T" [ Datalog.Ast.sym src; Datalog.Ast.var "Y" ]
      in
      let full, tf =
        time (fun () ->
            let r = Datalog.Seminaive.answer tc_program inst "T" in
            Relation.filter
              (fun t -> Value.equal (Tuple.get t 0) (Value.Sym src))
              r)
      in
      let magic, tm =
        time (fun () -> Datalog.Magic.answer tc_program inst query)
      in
      let full_all =
        Relation.cardinal (Datalog.Seminaive.answer tc_program inst "T")
      in
      let rewritten = Datalog.Magic.rewrite tc_program query in
      let magic_inst =
        Datalog.Seminaive.eval rewritten.Datalog.Magic.program
          (Instance.add_fact (fst rewritten.Datalog.Magic.seed)
             (snd rewritten.Datalog.Magic.seed)
             inst)
      in
      let magic_facts =
        Instance.total_facts
          (Instance.restrict
             (Datalog.Ast.idb rewritten.Datalog.Magic.program)
             magic_inst.Datalog.Seminaive.instance)
      in
      let full_metrics =
        collect_metrics (fun trace ->
            Datalog.Seminaive.answer ~trace tc_program inst "T")
      in
      let magic_metrics =
        collect_metrics (fun trace ->
            Datalog.Magic.answer ~trace tc_program inst query)
      in
      record ~experiment:"e8" ~case:name ~n:full_all ~engine:"seminaive-full"
        ~wall_ms:(1000. *. tf) ~stages:0 ~facts:full_all
        ~metrics:full_metrics ();
      record ~experiment:"e8" ~case:name ~n:full_all ~engine:"magic"
        ~wall_ms:(1000. *. tm) ~stages:0 ~facts:magic_facts
        ~metrics:magic_metrics ();
      row "  %-16s | %s %s %6.1fx | %8d %8d | %b\n" name (ms tf) (ms tm)
        (tf /. tm) full_all magic_facts (Relation.equal full magic))
    [
      ("chain-200", Graph_gen.chain 200, "n10");
      ("chain-300", Graph_gen.chain 300, "n20");
      ("random-120x300", Graph_gen.random ~seed:41 120 300, "n0");
      ("tree-d9", Graph_gen.binary_tree 9, "n100");
      ("grid-12x12", Graph_gen.grid 12 12, "n0");
    ];
  row "  shape: magic touches only facts reachable from the query constant\n"

(* ---------------------------------------------------------------- E9 *)

let e9 () =
  header "E9 | Theorem 4.6: Turing machines in Datalog~new";
  row "  %-18s %-10s | %6s %9s %7s | %9s | %s\n" "machine" "input" "steps"
    "invented" "stages" "time ms" "agrees";
  List.iter
    (fun (m, input) ->
      let (sim, t) =
        time (fun () -> Turing.Tm_compile.simulate m input)
      in
      let agrees = Turing.Tm_compile.agrees_with_reference m input in
      row "  %-18s %-10s | %6d %9d %7d | %s | %b\n" m.Turing.Tm.name
        (String.concat "" input)
        sim.Turing.Tm_compile.steps sim.Turing.Tm_compile.invented
        sim.Turing.Tm_compile.stages (ms t) agrees)
    [
      (Turing.Tm.unary_increment, [ "1"; "1"; "1"; "1" ]);
      (Turing.Tm.unary_increment, List.init 8 (fun _ -> "1"));
      (Turing.Tm.unary_increment, List.init 16 (fun _ -> "1"));
      (Turing.Tm.binary_increment, [ "1"; "0"; "1"; "1" ]);
      (Turing.Tm.binary_increment, [ "1"; "1"; "1"; "1" ]);
      (Turing.Tm.parity, [ "1"; "0"; "1"; "1" ]);
      (Turing.Tm.palindrome, [ "0"; "1"; "1"; "0" ]);
      (Turing.Tm.palindrome, [ "0"; "1"; "1" ]);
    ];
  row "  shape: invented values grow with steps (new time points + cells) — \
       the\n  unbounded workspace of the completeness proof\n"

(* --------------------------------------------------------------- E10 *)

let e10 () =
  header "E10 | stable models vs well-founded unknowns (win on cycles)";
  row "  %-10s | %8s %8s | %s\n" "cycle n" "unknown" "stable" "expected";
  List.iter
    (fun n ->
      let inst = Graph_gen.cycle ~name:"moves" n in
      let wf = Datalog.Wellfounded.eval win_program inst in
      let unknowns =
        Instance.total_facts (Datalog.Wellfounded.unknown wf)
      in
      let stable = Datalog.Stable.count win_program inst in
      let expected = if n mod 2 = 0 then 2 else 0 in
      assert (stable = expected);
      row "  %-10d | %8d %8d | %d\n" n unknowns stable expected)
    [ 2; 3; 4; 5; 6; 7; 8 ];
  row "  shape: even cycles have 2 alternating stable models, odd cycles \
       none;\n  the well-founded semantics leaves the whole cycle unknown\n"

(* --------------------------------------------------------------- E11 *)

let e11 () =
  header "E11 | ablation: delta (semi-naive) loop vs naive loop, inflationary \
          engine";
  (* DESIGN.md calls out the delta optimization's exactness for
     inflationary Datalog¬ — this ablates it. *)
  row "  %-18s | %10s %10s %7s | %s\n" "program/graph" "naive ms" "delta ms"
    "speedup" "agree";
  let cases =
    [
      ("tc/chain-60", tc_program, Graph_gen.chain 60);
      ("tc/random-80", tc_program, Graph_gen.random ~seed:51 80 200);
      ("ct-ex4.3/rand-10", comp_tc_inflationary, Graph_gen.random ~seed:52 10 20);
      ("closer/chain-10",
       prog
         {|
         T(X, Y) :- G(X, Y).
         T(X, Y) :- T(X, Z), G(Z, Y).
         closer(X, Y, X2, Y2) :- T(X, Y), !T(X2, Y2).
       |},
       Graph_gen.chain 10);
    ]
  in
  List.iter
    (fun (name, p, inst) ->
      let a, ta =
        time (fun () ->
            Datalog.Inflationary.eval ~strategy:Datalog.Inflationary.Naive_loop
              p inst)
      in
      let b, tb =
        time (fun () ->
            Datalog.Inflationary.eval ~strategy:Datalog.Inflationary.Delta_loop
              p inst)
      in
      let naive_metrics =
        collect_metrics (fun trace ->
            Datalog.Inflationary.eval ~trace
              ~strategy:Datalog.Inflationary.Naive_loop p inst)
      in
      let delta_metrics =
        collect_metrics (fun trace ->
            Datalog.Inflationary.eval ~trace
              ~strategy:Datalog.Inflationary.Delta_loop p inst)
      in
      record ~experiment:"e11" ~case:name
        ~n:(Instance.total_facts b.Datalog.Inflationary.instance)
        ~engine:"inflationary-naive" ~wall_ms:(1000. *. ta)
        ~stages:a.Datalog.Inflationary.stages
        ~facts:(Instance.total_facts a.Datalog.Inflationary.instance)
        ~metrics:naive_metrics ();
      record ~experiment:"e11" ~case:name
        ~n:(Instance.total_facts b.Datalog.Inflationary.instance)
        ~engine:"inflationary-delta" ~wall_ms:(1000. *. tb)
        ~stages:b.Datalog.Inflationary.stages
        ~facts:(Instance.total_facts b.Datalog.Inflationary.instance)
        ~metrics:delta_metrics ();
      row "  %-18s | %s %s %6.1fx | %b\n" name (ms ta) (ms tb) (ta /. tb)
        (Instance.equal a.Datalog.Inflationary.instance
           b.Datalog.Inflationary.instance))
    cases;
  row "  shape: deltas win most on deep recursion (chains); the ablation \
       confirms\n  exactness on negation-heavy programs too\n"

(* --------------------------------------------------------------- E12 *)

let e12 () =
  header "E12 | production-system conflict-resolution strategies (§5/§7)";
  let rules =
    prog
      {|
      reserved(I, C), !stock(I) :- order(C, I), stock(I).
      shipped(I, C), !reserved(I, C) :- reserved(I, C), carrier_ready.
      backorder(C, I) :- order(C, I), !stock(I), !reserved(I, C), !shipped(I, C).
    |}
  in
  let memory n =
    let orders =
      List.init n (fun i ->
          [ Value.Sym (Printf.sprintf "cust%d" i); Value.Sym "widget" ])
    in
    Instance.of_list
      [
        ("order", orders);
        ("stock", [ [ Value.Sym "widget" ] ]);
        ("carrier_ready", [ [] ]);
      ]
  in
  row "  %-14s %4s | %7s %9s | %8s %10s\n" "strategy" "n" "cycles" "time ms"
    "shipped" "backorders";
  List.iter
    (fun n ->
      List.iter
        (fun (name, strategy) ->
          let res, t =
            time (fun () -> Datalog.Production.run ~strategy rules (memory n))
          in
          let count p =
            Relation.cardinal
              (Instance.find p res.Datalog.Production.memory)
          in
          row "  %-14s %4d | %7d %s | %8d %10d\n" name n
            res.Datalog.Production.cycles (ms t) (count "shipped")
            (count "backorder"))
        [
          ("first", Datalog.Production.First);
          ("random", Datalog.Production.Random 17);
          ("recency", Datalog.Production.Recency);
          ("specificity", Datalog.Production.Specificity);
        ])
    [ 4; 8; 16 ];
  row "  shape: one widget, one shipment and n-1 backorders under every \
       strategy;\n  cycle counts coincide (the workload serializes), times \
       differ by match cost\n"

(* --------------------------------------------------------------- E13 *)

let e13 () =
  header "E13 | distributed evaluation and the CALM observation (§6)";
  let module N = Distributed.Netlog in
  let lrule ?(location = N.Local) src =
    { N.location; rule = Datalog.Parser.parse_rule src }
  in
  (* distributed TC: edges split across k worker peers, reach facts routed
     to a coordinator that closes them transitively *)
  let network k n =
    let chain = Graph_gen.chain n in
    let edges = Relation.to_list (Instance.find "G" chain) in
    let parts = Array.make k [] in
    List.iteri (fun i e -> parts.(i mod k) <- e :: parts.(i mod k)) edges;
    let worker i = Printf.sprintf "w%d" i in
    {
      N.peers = "coord" :: List.init k worker;
      programs =
        ("coord", [ lrule "reach(X, Y) :- reach(X, Z), reach(Z, Y)." ])
        :: List.init k (fun i ->
               ( worker i,
                 [
                   lrule ~location:(N.At_peer "coord")
                     "reach(X, Y) :- edge(X, Y).";
                 ] ));
      stores =
        List.init k (fun i ->
            ( worker i,
              Instance.set "edge"
                (Relation.of_list parts.(i))
                Instance.empty ));
    }
  in
  row "  %-18s | %8s %9s %9s | %10s | %s\n" "network" "peers" "rounds"
    "messages" "time ms" "confluent";
  List.iter
    (fun (k, n) ->
      let net = network k n in
      let out, t = time (fun () -> N.run net) in
      let reach =
        Relation.cardinal (Instance.find "reach" (N.store out "coord"))
      in
      let expected = n * (n - 1) / 2 in
      assert (reach = expected);
      let conf, tc = time (fun () -> N.confluent net) in
      row "  %-18s | %8d %9d %9d | %s | %b (%.0f ms)\n"
        (Printf.sprintf "tc k=%d n=%d" k n)
        (k + 1) out.N.rounds out.N.messages (ms t) conf (1000. *. tc))
    [ (2, 16); (4, 16); (4, 32); (8, 32) ];
  (* the non-monotone counterpoint: racing flags disagree by schedule *)
  let racing =
    {
      N.peers = [ "a"; "b" ];
      programs =
        [
          ("a", [ lrule ~location:(N.At_peer "b")
                    "blocked(a2) :- start(X), !blocked(b2)." ]);
          ("b", [ lrule ~location:(N.At_peer "a")
                    "blocked(b2) :- start(X), !blocked(a2)." ]);
        ];
      stores =
        [
          ("a", Instance.parse_facts "start(go).");
          ("b", Instance.parse_facts "start(go).");
        ];
    }
  in
  row "  racing flags (negation): confluent = %b (schedule-dependent, as \
       CALM predicts)\n"
    (N.confluent racing);
  row "  shape: monotone networks agree under every schedule; negation \
       breaks it\n"

(* --------------------------------------------------------------- E14 *)

let e14 () =
  header "E14 | monadic Datalog over trees: wrapper scaling (§6, Lixto)";
  let wrapper =
    prog
      {|
      in_results(X) :- label_results(R), child(R, X).
      in_results(X) :- in_results(Y), child(Y, X).
      good(X) :- label_product(X), in_results(X), child(X, S), label_instock(S).
      wanted(P) :- good(X), child(X, P), label_price(P).
    |}
  in
  assert (Trees.Tree.is_monadic wrapper);
  (* synthetic listing page: k products (2/3 in stock) under nested divs *)
  let page k =
    let product i =
      Trees.Tree.node "product"
        (Trees.Tree.leaf "title" :: Trees.Tree.leaf "price"
         :: (if i mod 3 = 0 then [] else [ Trees.Tree.leaf "instock" ]))
    in
    Trees.Tree.node "html"
      [
        Trees.Tree.node "div"
          [ Trees.Tree.node "results" (List.init k product) ];
        Trees.Tree.node "footer" [];
      ]
  in
  row "  %-14s | %8s %9s | %9s\n" "products" "nodes" "selected" "time ms";
  List.iter
    (fun k ->
      let t = page k in
      let n = Trees.Tree.size t in
      let sel, tm = time (fun () -> Trees.Tree.select wrapper t "wanted") in
      assert (List.length sel = k - ((k + 2) / 3));
      row "  %-14d | %8d %9d | %s\n" k n (List.length sel) (ms tm))
    [ 10; 20; 40; 80; 160 ];
  row "  shape: selection cost grows roughly linearly with tree size — the\n";
  row "  Gottlob-Koch promise that makes monadic Datalog a wrapper language\n"

(* --------------------------------------------------------------- E15 *)

let e15 () =
  header "E15 | Datalog± restricted chase and certain answers (§6)";
  let tgd = Datalog.Parser.parse_rule in
  let onto =
    [
      tgd "worksIn(E, D) :- emp(E).";
      tgd "hasManager(D, M) :- worksIn(E, D).";
      tgd "worksIn(M, D) :- hasManager(D, M).";
      tgd "emp(M) :- hasManager(D, M).";
    ]
  in
  row "  ontology: linear=%b guarded=%b weakly-acyclic=%b (restricted chase \
       still terminates)\n"
    (Ontology.Chase.is_linear onto)
    (Ontology.Chase.is_guarded onto)
    (Ontology.Chase.weakly_acyclic onto);
  row "  %-8s | %7s %7s | %10s | %s\n" "|emp|" "steps" "nulls" "chase ms"
    "|certain workers|";
  List.iter
    (fun n ->
      let inst =
        Instance.of_list
          [ ("emp", List.init n (fun i -> [ Value.Sym (Printf.sprintf "e%d" i) ])) ]
      in
      match time (fun () -> Ontology.Chase.chase onto inst) with
      | { Ontology.Chase.steps; nulls; _ }, t ->
          let ca =
            Ontology.Chase.certain_answers onto inst
              {
                Ontology.Chase.body =
                  [ Datalog.Parser.parse_atom "worksIn(E, D)" ];
                answer = [ "E" ];
              }
          in
          assert (Relation.cardinal ca = n);
          row "  %-8d | %7d %7d | %s | %d\n" n steps nulls (ms t)
            (Relation.cardinal ca)
      | exception Fuel.Exhausted _ -> row "  %-8d | out of fuel\n" n)
    [ 2; 4; 8; 16; 32 ];
  row "  shape: steps and nulls grow linearly with the data; nulls never \
       leak into\n  certain answers\n"

(* ---------------------------------------------------------------- E16 *)

(* Domain-parallel evaluation: semi-naive TC on the large random graph,
   swept over the job count. Every run's instance is checked
   byte-identical against the sequential one (printing is sorted, so
   string equality is the strongest determinism check available). The
   recorded engines are "seminaive-jN"; rows carry the par.* metrics. *)
let e16 () =
  header "E16 | parallel evaluation: jobs sweep (semi-naive TC)";
  let saved_jobs = Parallel.Pool.jobs () in
  Fun.protect ~finally:(fun () -> Parallel.Pool.set_jobs saved_jobs)
  @@ fun () ->
  row "  %-16s %4s | %9s %7s | %6s %6s | %s\n" "graph" "j" "semi ms" "vs j1"
    "stages" "|T|" "identical";
  List.iter
    (fun (name, n, inst) ->
      let baseline = ref None in
      List.iter
        (fun jobs ->
          Parallel.Pool.set_jobs jobs;
          let rs, ts = time (fun () -> Datalog.Seminaive.eval tc_program inst) in
          let out =
            Instance.to_string rs.Datalog.Seminaive.instance
          in
          let t1, same =
            match !baseline with
            | None ->
                baseline := Some (ts, out);
                (ts, true)
            | Some (t1, out1) -> (t1, String.equal out out1)
          in
          assert same;
          let tfacts =
            Relation.cardinal (Instance.find "T" rs.Datalog.Seminaive.instance)
          in
          let metrics =
            collect_metrics (fun trace ->
                Datalog.Seminaive.eval ~trace tc_program inst)
          in
          record ~experiment:"e16" ~case:name ~n
            ~engine:(Printf.sprintf "seminaive-j%d" jobs)
            ~wall_ms:(1000. *. ts) ~stages:rs.Datalog.Seminaive.stages
            ~facts:tfacts ~metrics ();
          row "  %-16s %4d | %s %6.2fx | %6d %6d | %b\n" name jobs (ms ts)
            (t1 /. ts) rs.Datalog.Seminaive.stages tfacts same)
        [ 1; 2; 4; 8 ])
    [ ("random-1000x5000", 1000, Graph_gen.random ~seed:13 1000 5000) ];
  row "  shape: speedup tracks the machine's core count — delta slices \
       spread the\n  firing work, but one core can only interleave them\n"

(* ---------------------------------------------------------------- E17 *)

(* the while-language TC program: cumulate G \/ (G ; T) into T until
   T stops changing *)
let while_tc =
  let tc_query =
    {
      While_lang.Wast.formula =
        Fo.Or
          ( Fo.Atom ("G", [ Fo.Var "x"; Fo.Var "y" ]),
            Fo.Exists
              ( [ "z" ],
                Fo.And
                  ( Fo.Atom ("G", [ Fo.Var "x"; Fo.Var "z" ]),
                    Fo.Atom ("T", [ Fo.Var "z"; Fo.Var "y" ]) ) ) );
      vars = [ "x"; "y" ];
    }
  in
  [ While_lang.Wast.While_change [ While_lang.Wast.Cumulate ("T", tc_query) ] ]

(* Safe-range compilation (lib/relational/fo) against the naive
   active-domain enumerators it replaced. Two workloads:

     - the TC-complement calculus query
         ct(x, y) = not (G(x, y) \/ exists z (G(x, z) /\ T(z, y)))
       with T the precomputed transitive closure: the oracle enumerates
       adom^2 candidate pairs and re-runs the exists-loop for each,
       while the compiled plan answers with one hash join, a union and
       an antijoin against the domain square;
     - the while-language TC program, run by Weval with ~naive:true
       (per-round enumeration) and through once-compiled plans.

   The naive while evaluator re-enumerates adom^2 every round and takes
   minutes at n = 300, so its column stops at the mid-size graph (the
   e2 naive-column convention). *)
let e17 () =
  header "E17 | safe-range compiler: FO and while, naive vs compiled";
  row "  %-24s | %9s %9s %8s | %6s | %s\n" "workload" "naive ms" "comp ms"
    "speedup" "|ans|" "agree";
  let ct_formula =
    Fo.Not
      (Fo.Or
         ( Fo.Atom ("G", [ Fo.Var "x"; Fo.Var "y" ]),
           Fo.Exists
             ( [ "z" ],
               Fo.And
                 ( Fo.Atom ("G", [ Fo.Var "x"; Fo.Var "z" ]),
                   Fo.Atom ("T", [ Fo.Var "z"; Fo.Var "y" ]) ) ) ))
  in
  List.iter
    (fun (name, n, inst) ->
      let case = "fo-ct/" ^ name in
      let tc = Graph_gen.reference_tc (Instance.find "G" inst) in
      let with_tc = Instance.set "T" tc inst in
      let c, tc_ms =
        time (fun () -> Fo.eval with_tc ct_formula [ "x"; "y" ])
      in
      let nv, tn_ms =
        time (fun () -> Fo.eval_naive with_tc ct_formula [ "x"; "y" ])
      in
      let compiled_metrics =
        collect_metrics (fun trace ->
            Fo.eval ~trace with_tc ct_formula [ "x"; "y" ])
      in
      record ~experiment:"e17" ~case ~n ~engine:"fo-naive"
        ~wall_ms:(1000. *. tn_ms) ~stages:0 ~facts:(Relation.cardinal nv) ();
      record ~experiment:"e17" ~case ~n ~engine:"fo-compiled"
        ~wall_ms:(1000. *. tc_ms) ~stages:0 ~facts:(Relation.cardinal c)
        ~metrics:compiled_metrics ();
      row "  %-24s | %s %s %7.1fx | %6d | %b\n" case (ms tn_ms) (ms tc_ms)
        (tn_ms /. tc_ms) (Relation.cardinal c) (Relation.equal c nv))
    [
      ("random-100x300", 100, Graph_gen.random ~seed:11 100 300);
      ("random-300x900", 300, Graph_gen.random ~seed:12 300 900);
    ];
  List.iter
    (fun (name, n, inst, run_naive) ->
      let case = "while-tc/" ^ name in
      let c, tc_ms =
        time (fun () -> While_lang.Weval.answer while_tc inst "T")
      in
      assert (
        Relation.equal c (Graph_gen.reference_tc (Instance.find "G" inst)));
      let compiled_metrics =
        collect_metrics (fun trace ->
            While_lang.Weval.answer ~trace while_tc inst "T")
      in
      record ~experiment:"e17" ~case ~n ~engine:"while-compiled"
        ~wall_ms:(1000. *. tc_ms) ~stages:0 ~facts:(Relation.cardinal c)
        ~metrics:compiled_metrics ();
      if run_naive then (
        let nv, tn_ms =
          time (fun () ->
              While_lang.Weval.answer ~naive:true while_tc inst "T")
        in
        record ~experiment:"e17" ~case ~n ~engine:"while-naive"
          ~wall_ms:(1000. *. tn_ms) ~stages:0 ~facts:(Relation.cardinal nv) ();
        row "  %-24s | %s %s %7.1fx | %6d | %b\n" case (ms tn_ms) (ms tc_ms)
          (tn_ms /. tc_ms) (Relation.cardinal c) (Relation.equal c nv))
      else
        row "  %-24s | %9s %s %8s | %6d | %b\n" case "-" (ms tc_ms) "-"
          (Relation.cardinal c) true)
    [
      ("random-100x300", 100, Graph_gen.random ~seed:11 100 300, true);
      ("random-300x900", 300, Graph_gen.random ~seed:12 300 900, false);
    ];
  row "  shape: the compiler turns adom^2-times-adom enumeration into \
       hash joins;\n  the gap widens with the domain and with every while \
       round that re-runs it\n"

(* ---------------------------------------------------------------- E19 *)

(* Profiling overhead: the per-operator hooks in Algebra.eval must cost
   nothing when disabled (?profile defaults to None: one option match per
   node execution) and stay cheap enabled (a clock read, a frame push and
   a hashtable bump per node). Times e17's while-language TC — the
   deepest Algebra plan stack in the repo, re-run every loop round —
   with profiling off vs on. The disabled path's absolute budget is the
   separate acceptance check: tools/bench_diff of a fresh e2 run against
   the committed BENCH_engines.json. *)
let e19 () =
  header "E19 | operator profiling overhead (Algebra plans, while TC)";
  row "  %-18s | %10s %10s | %8s | %8s\n" "graph" "off ms" "on ms"
    "overhead" "|answer|";
  List.iter
    (fun (name, n, inst) ->
      let off, t_off =
        time (fun () -> While_lang.Weval.answer while_tc inst "T")
      in
      let on, t_on =
        time (fun () ->
            While_lang.Weval.answer ~profile:(Algebra.profile ()) while_tc
              inst "T")
      in
      assert (Relation.equal off on);
      record ~experiment:"e19" ~case:name ~n ~engine:"while-noprofile"
        ~wall_ms:(1000. *. t_off) ~stages:0 ~facts:(Relation.cardinal off) ();
      record ~experiment:"e19" ~case:name ~n ~engine:"while-profile"
        ~wall_ms:(1000. *. t_on) ~stages:0 ~facts:(Relation.cardinal on) ();
      row "  %-18s | %s %s | %+7.1f%% | %8d\n" name (ms t_off) (ms t_on)
        (100. *. (t_on -. t_off) /. t_off)
        (Relation.cardinal off))
    [
      ("chain-100", 100, Graph_gen.chain 100);
      ("random-100x300", 100, Graph_gen.random ~seed:11 100 300);
      ("random-300x900", 300, Graph_gen.random ~seed:12 300 900);
    ];
  row
    "  overhead is per-operator-execution, so it concentrates in plans \
     with many\n  cheap executions (loop rounds); EXPERIMENTS.md E19 \
     records the numbers\n"

(* ---------------------------------------------------------------- E21 *)

(* The first write of a resident session, on serve-mixed's shape (a
   random DAG, 1000 vertices, 3000 edges, loaded from fact text as
   [serve -f] loads it): [Server.Engine.create] alone, then followed by
   one assert, then by one retract, each rep loading the facts afresh,
   untimed, after a full major collection. Neither [create] nor a write
   publishes T, so no write copies T's membership set. The rows
   "assert" and "retract" time the write alone, after an untimed
   [create] and a full major collection. *)
let dag_n = 1000
let dag_m = 3000
let dag_edge i j = Tuple.of_list [ Graph_gen.vertex i; Graph_gen.vertex j ]
let edge_batch t = Instance.add_fact "G" t Instance.empty

let e21_first_write text g =
  let n = dag_n and edge = dag_edge and batch = edge_batch in
  (* a DAG edge the graph lacks, from a middle vertex, and its first edge *)
  let rec absent j =
    if Relation.mem (edge (n / 2) j) g then absent (j + 1) else edge (n / 2) j
  in
  let added = batch (absent ((n / 2) + 1))
  and removed = batch (List.hd (Relation.to_list g)) in
  let assert_ eng = ignore (Server.Engine.assert_facts eng added)
  and retract eng = ignore (Server.Engine.retract_facts eng removed) in
  let case = Printf.sprintf "first-write-dag-%dx%d" n dag_m in
  let loaded () =
    Gc.full_major ();
    Instance.parse_facts text
  and created () =
    let eng = Server.Engine.create tc_program (Instance.parse_facts text) in
    Gc.full_major ();
    eng
  and create inst = Server.Engine.create tc_program inst in
  row "\n  %-27s %-14s | %9s | %s\n" "case" "engine" "wall ms" "T facts";
  List.iter
    (fun (engine, timed) ->
      let eng, dt = timed () in
      let facts =
        Relation.cardinal (Instance.find "T" (Server.Engine.instance eng))
      in
      record ~experiment:"e21" ~case ~n ~engine ~wall_ms:(1000. *. dt)
        ~stages:0 ~facts ();
      row "  %-27s %-14s | %s | %d\n" case engine (ms dt) facts)
    [
      ("create", fun () -> time_on loaded create);
      ( "create+assert",
        fun () ->
          time_on loaded (fun inst ->
              let eng = create inst in
              assert_ eng;
              eng) );
      ( "create+retract",
        fun () ->
          time_on loaded (fun inst ->
              let eng = create inst in
              retract eng;
              eng) );
      ( "assert",
        fun () ->
          time_on created (fun eng ->
              assert_ eng;
              eng) );
      ( "retract",
        fun () ->
          time_on created (fun eng ->
              retract eng;
              eng) );
    ]

(* Steady-state writes on the same DAG, by serve-mixed's write rule:
   assert an absent lower-to-higher edge while fewer than 64 added edges
   are live, retract a random live added edge while more are, and
   either at even odds at 64. Each write is timed on its own, in
   process; the rows report the p50 (as wall_ms) and the mean over the
   run, and the final T count, which the seeded schedule fixes. *)
let e21_steady text g =
  let n = dag_n and temp = 64 and writes = 800 in
  let edge = dag_edge and batch = edge_batch in
  let eng = Server.Engine.create tc_program (Instance.parse_facts text) in
  let rng = Random.State.make [| 0x5e21; n; dag_m |] in
  let rec fresh added =
    let i = Random.State.int rng n and j = Random.State.int rng n in
    let e = edge (min i j) (max i j) in
    if i = j || Relation.mem e g || List.exists (Tuple.equal e) added then
      fresh added
    else e
  in
  let timed f =
    let t0 = Observe.Trace.now () in
    ignore (f ());
    Observe.Trace.now () -. t0
  in
  let added = ref [] and nadded = ref 0 in
  let asserts = ref [] and retracts = ref [] in
  for _ = 1 to writes do
    if !nadded < temp || (!nadded = temp && Random.State.bool rng) then (
      let e = fresh !added in
      added := e :: !added;
      incr nadded;
      asserts :=
        timed (fun () -> Server.Engine.assert_facts eng (batch e)) :: !asserts)
    else
      let k = Random.State.int rng !nadded in
      let e = List.nth !added k in
      added := List.filteri (fun i _ -> i <> k) !added;
      decr nadded;
      retracts :=
        timed (fun () -> Server.Engine.retract_facts eng (batch e))
        :: !retracts
  done;
  let facts =
    Relation.cardinal (Instance.find "T" (Server.Engine.instance eng))
  in
  let case = Printf.sprintf "steady-writes-dag-%dx%d" n dag_m in
  List.iter
    (fun (engine, ts) ->
      let sorted = Array.of_list (List.sort Float.compare ts) in
      let ops = Array.length sorted in
      let p50 = sorted.(ops / 2)
      and mean = Array.fold_left ( +. ) 0. sorted /. float_of_int ops in
      let us t = int_of_float (1e6 *. t) in
      record ~experiment:"e21" ~case ~n ~engine ~wall_ms:(1000. *. p50)
        ~stages:0 ~facts
        ~metrics:[ ("ops", ops); ("p50_us", us p50); ("mean_us", us mean) ]
        ();
      row "  %-27s %-14s | %s | %d  (%d ops, p50 %d us, mean %d us)\n" case
        engine (ms p50) facts ops (us p50) (us mean))
    [ ("assert", !asserts); ("retract", !retracts) ]

(* The resident server: one long-lived materialization maintained
   incrementally (semi-naive deltas for asserts, DRed for retracts —
   lib/server) vs re-running semi-naive evaluation from scratch after
   every update. The same mixed read/write schedule drives both sides;
   the final T relations must be [Relation.equal]. Engines are recorded
   as "serve-incremental" and "recompute". *)
let e21 () =
  header "E21 | resident serve: incremental maintenance vs recompute";
  row "  %-18s %5s %5s | %9s | %9s | %7s | %s\n" "graph" "upd" "qry"
    "incr ms" "rescan ms" "speedup" "identical";
  List.iter
    (fun (name, n, edges, seed, nops, retract_share) ->
      let inst = Graph_gen.random ~seed n edges in
      (* deterministic mixed schedule — 40% fresh asserts,
         [retract_share]/20 retracts biased toward edges known present,
         the rest point reads — generated once up front and replayed
         identically by both sides *)
      let rng = Random.State.make [| 0x5e21; seed; nops |] in
      let live =
        ref (Relation.fold (fun t acc -> t :: acc) (Instance.find "G" inst) [])
      in
      let vtx () = Graph_gen.vertex (Random.State.int rng (n + 2)) in
      let edge () = Tuple.of_list [ vtx (); vtx () ] in
      let ops =
        List.init nops (fun _ ->
            match Random.State.int rng 20 with
            | d when d < 8 ->
                let t = edge () in
                live := t :: !live;
                `Assert t
            | d when d < 8 + retract_share -> (
                match !live with
                | [] -> `Retract (edge ())
                | l ->
                    let k = Random.State.int rng (List.length l) in
                    let t = List.nth l k in
                    live := List.filteri (fun i _ -> i <> k) l;
                    `Retract t)
            | _ -> `Query (vtx ()))
      in
      let updates =
        List.length (List.filter (function `Query _ -> false | _ -> true) ops)
      in
      let queries = nops - updates in
      let batch t = Instance.add_fact "G" t Instance.empty in
      let point v =
        Datalog.Ast.atom "T" [ Datalog.Ast.cst v; Datalog.Ast.var "Y" ]
      in
      let run_incremental trace =
        let eng = Server.Engine.create ?trace tc_program inst in
        List.iter
          (function
            | `Assert t -> ignore (Server.Engine.assert_facts eng (batch t))
            | `Retract t -> ignore (Server.Engine.retract_facts eng (batch t))
            | `Query v -> ignore (Server.Engine.query eng (point v)))
          ops;
        Instance.find "T" (Server.Engine.instance eng)
      in
      (* the baseline a resident process replaces: keep only the base
         instance, recompute the fixpoint after every update, answer
         reads by filtering the latest materialization *)
      let run_recompute () =
        let edb = ref inst in
        let mat =
          ref (Datalog.Seminaive.eval tc_program inst).Datalog.Seminaive.instance
        in
        let recompute () =
          mat := (Datalog.Seminaive.eval tc_program !edb).Datalog.Seminaive.instance
        in
        List.iter
          (function
            | `Assert t ->
                edb := Instance.add_fact "G" t !edb;
                recompute ()
            | `Retract t ->
                if Instance.mem_fact "G" t !edb then (
                  edb := Instance.remove_fact "G" t !edb;
                  recompute ())
            | `Query v ->
                ignore
                  (Relation.filter
                     (fun t -> Value.equal (Tuple.get t 0) v)
                     (Instance.find "T" !mat)))
          ops;
        Instance.find "T" !mat
      in
      let t_incr, ti = time (fun () -> run_incremental None) in
      let t_full, tf = time run_recompute in
      let same = Relation.equal t_incr t_full in
      assert same;
      let metrics = collect_metrics (fun trace -> run_incremental (Some trace)) in
      record ~experiment:"e21" ~case:name ~n ~engine:"serve-incremental"
        ~wall_ms:(1000. *. ti) ~stages:0 ~facts:(Relation.cardinal t_incr)
        ~metrics ();
      record ~experiment:"e21" ~case:name ~n ~engine:"recompute"
        ~wall_ms:(1000. *. tf) ~stages:0 ~facts:(Relation.cardinal t_full) ();
      row "  %-18s %5d %5d | %s | %s | %6.1fx | %b\n" name updates queries
        (ms ti) (ms tf) (tf /. ti) same)
    [
      ("sparse-120x119", 120, 119, 7, 200, 6);
      ("dense-120x240", 120, 240, 7, 100, 6);
      ("dense-retract-light", 120, 240, 7, 100, 1);
    ];
  row
    "  shape: recompute pays the full fixpoint per update; the resident \
     engine\n  touches only the delta cone (semi-naive up, DRed down). On \
     a dense TC the\n  deletion cone IS the view — DRed's documented worst \
     case — so the win\n  concentrates in sparse cones and retract-light \
     mixes; EXPERIMENTS.md E21\n";
  let text = Instance.to_string (Graph_gen.random_dag ~seed:21 dag_n dag_m) in
  let g = Instance.find "G" (Instance.parse_facts text) in
  e21_first_write text g;
  e21_steady text g

(* ---------------------------------------------------------------- E22 *)

(* weighted TC for the tropical rows: the trailing Int column of a base
   fact is its MinPlus annotation (Semiring.of_edb), so ⊕ = min over
   derivations computes single-pair shortest path *)
let sp_program =
  prog {|
    T(X, Y) :- E(X, Y, W).
    T(X, Z) :- E(X, Y, W), T(Y, Z).
  |}

let e22 () =
  header "E22 | semiring annotations: Boolean guard, tropical";
  row "  %-22s %-22s | %9s | %s\n" "case" "engine" "wall ms" "check";
  (* a) Boolean guard — --annot bool must ride the untouched engines.
     Same graph as e2's random-300x900; the committed semiring section
     gates both rows at <5% via datalog-bench-diff. *)
  let g300 = Graph_gen.random ~seed:12 300 900 in
  (* the two sides run in one process: level the heap before each timed
     section so the gate measures the code path, not GC state inherited
     from whichever side ran first *)
  Gc.compact ();
  let rs, ts = time (fun () -> Datalog.Seminaive.eval tc_program g300) in
  let plain = rs.Datalog.Seminaive.instance in
  let tfacts = Relation.cardinal (Instance.find "T" plain) in
  Gc.compact ();
  let ra, ta =
    time (fun () -> Datalog.Annot_eval.run Semiring.Bool tc_program g300)
  in
  let bool_same = Instance.equal plain ra.Datalog.Annot_eval.instance in
  assert bool_same;
  record ~experiment:"e22" ~case:"random-300x900" ~n:300 ~engine:"seminaive"
    ~wall_ms:(1000. *. ts) ~stages:rs.Datalog.Seminaive.stages ~facts:tfacts
    ~metrics:
      (collect_metrics (fun trace ->
           Datalog.Seminaive.eval ~trace tc_program g300))
    ();
  record ~experiment:"e22" ~case:"random-300x900" ~n:300 ~engine:"seminaive"
    ~annot:"bool"
    ~wall_ms:(1000. *. ta)
    ~stages:Datalog.Annot_eval.(ra.stats.stages)
    ~facts:tfacts
    ~metrics:
      (collect_metrics (fun trace ->
           Datalog.Annot_eval.run ~trace Semiring.Bool tc_program g300))
    ();
  row "  %-22s %-22s | %s | plain path\n" "random-300x900" "seminaive" (ms ts);
  row "  %-22s %-22s | %s | identical instance (%+.1f%%)\n" "random-300x900"
    "seminaive --annot bool" (ms ta)
    (100. *. (ta -. ts) /. ts);
  (* b) tropical shortest path vs a hand-rolled all-pairs Dijkstra on a
     random positively-weighted graph: every T annotation must equal the
     Dijkstra distance, and the supports must coincide with reachability *)
  let wn, wm = 80, 240 in
  let wrng = Random.State.make [| 0x5e22; wn; wm |] in
  let wedges =
    List.init wm (fun _ ->
        ( Random.State.int wrng wn,
          Random.State.int wrng wn,
          1 + Random.State.int wrng 9 ))
  in
  let winst =
    Instance.set "E"
      (Relation.of_rows
         (List.map
            (fun (x, y, w) ->
              [ Graph_gen.vertex x; Graph_gen.vertex y; Value.Int w ])
            wedges))
      Instance.empty
  in
  let rt, tt =
    time (fun () -> Datalog.Annot_eval.run Semiring.MinPlus sp_program winst)
  in
  let inf = max_int / 2 in
  let dijkstra () =
    (* O(n^2) selection Dijkstra per source — no heap, weights >= 1 *)
    let adj = Array.make wn [] in
    List.iter (fun (x, y, w) -> adj.(x) <- (y, w) :: adj.(x)) wedges;
    Array.init wn (fun src ->
        let dist = Array.make wn inf in
        let vis = Array.make wn false in
        (* the source's own distance is 0 only through an actual walk:
           seed the frontier with the out-edges instead, matching the
           TC semantics where T(x, x) needs a cycle through x *)
        List.iter (fun (y, w) -> dist.(y) <- min dist.(y) w) adj.(src);
        let rec loop () =
          let u = ref (-1) in
          for v = 0 to wn - 1 do
            if (not vis.(v)) && dist.(v) < inf
               && (!u = -1 || dist.(v) < dist.(!u))
            then u := v
          done;
          if !u >= 0 then (
            vis.(!u) <- true;
            List.iter
              (fun (y, w) ->
                if dist.(!u) + w < dist.(y) then dist.(y) <- dist.(!u) + w)
              adj.(!u);
            loop ())
        in
        loop ();
        dist)
  in
  let dist, tdij = time dijkstra in
  let trop_ok = ref true in
  for i = 0 to wn - 1 do
    for j = 0 to wn - 1 do
      let tup = Tuple.of_list [ Graph_gen.vertex i; Graph_gen.vertex j ] in
      let got = Datalog.Annot_eval.annotation rt "T" tup in
      let want =
        if dist.(i).(j) = inf then Semiring.W Semiring.minplus_zero
        else Semiring.W dist.(i).(j)
      in
      if not (Semiring.equal_v got want) then trop_ok := false
    done
  done;
  assert !trop_ok;
  let tsupport = Relation.cardinal (Instance.find "T" rt.Datalog.Annot_eval.instance) in
  record ~experiment:"e22"
    ~case:(Printf.sprintf "weighted-%dx%d" wn wm)
    ~n:wn ~engine:"annot-minplus" ~annot:"minplus"
    ~wall_ms:(1000. *. tt)
    ~stages:Datalog.Annot_eval.(rt.stats.stages)
    ~facts:tsupport
    ~metrics:
      (collect_metrics (fun trace ->
           Datalog.Annot_eval.run ~trace Semiring.MinPlus sp_program winst))
    ();
  record ~experiment:"e22"
    ~case:(Printf.sprintf "weighted-%dx%d" wn wm)
    ~n:wn ~engine:"dijkstra-oracle" ~wall_ms:(1000. *. tdij) ~stages:0
    ~facts:tsupport ();
  row "  %-22s %-22s | %s | all %d distances match\n"
    (Printf.sprintf "weighted-%dx%d" wn wm)
    "annot-minplus" (ms tt) tsupport;
  row "  %-22s %-22s | %s | hand-rolled oracle\n"
    (Printf.sprintf "weighted-%dx%d" wn wm)
    "dijkstra-oracle" (ms tdij);
  row
    "  shape: --annot bool is the untouched hot path (<5%% gate); MinPlus = \
     Dijkstra\n"

(* ---------------------------------------------------- bechamel kernels *)

let bechamel_kernels () =
  header "Bechamel micro-benchmarks (monotonic clock, OLS estimate)";
  let open Bechamel in
  let chain40 = Graph_gen.chain 40 in
  let win40 = Graph_gen.random ~name:"moves" ~seed:21 30 60 in
  let two5 = Graph_gen.two_cycles 5 in
  let tests =
    [
      Test.make ~name:"naive-tc-chain40"
        (Staged.stage (fun () -> ignore (Datalog.Naive.eval tc_program chain40)));
      Test.make ~name:"seminaive-tc-chain40"
        (Staged.stage (fun () ->
             ignore (Datalog.Seminaive.eval tc_program chain40)));
      Test.make ~name:"stratified-ct-chain24"
        (let g = Graph_gen.chain 24 in
         Staged.stage (fun () ->
             ignore (Datalog.Stratified.eval comp_tc_stratified g)));
      Test.make ~name:"wellfounded-win-random30"
        (Staged.stage (fun () ->
             ignore (Datalog.Wellfounded.eval win_program win40)));
      Test.make ~name:"enumerate-orientations-k5"
        (Staged.stage (fun () ->
             ignore (Nondet.Enumerate.effect orientation_program two5)));
      Test.make ~name:"magic-point-chain200"
        (let g = Graph_gen.chain 200 in
         let left_tc =
           prog {|
             T(X, Y) :- G(X, Y).
             T(X, Y) :- T(X, Z), G(Z, Y).
           |}
         in
         let q = Datalog.Ast.atom "T" [ Datalog.Ast.sym "n10"; Datalog.Ast.var "Y" ] in
         Staged.stage (fun () -> ignore (Datalog.Magic.answer left_tc g q)));
      Test.make ~name:"tm-unary-increment-8"
        (Staged.stage (fun () ->
             ignore
               (Turing.Tm_compile.simulate Turing.Tm.unary_increment
                  (List.init 8 (fun _ -> "1")))));
    ]
  in
  let clock = Toolkit.Instance.monotonic_clock in
  let benchmark test =
    let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
    Benchmark.all cfg [ clock ] test
  in
  List.iter
    (fun test ->
      let results = benchmark test in
      Hashtbl.iter
        (fun name raw ->
          match
            Analyze.one
              (Analyze.ols ~bootstrap:0 ~r_square:false
                 ~predictors:[| Measure.run |])
              clock raw
          with
          | exception _ -> Printf.printf "  %-28s (analysis failed)\n" name
          | est -> (
              match Analyze.OLS.estimates est with
              | Some [ t ] -> Printf.printf "  %-28s %12.0f ns/run\n" name t
              | _ -> Printf.printf "  %-28s (no estimate)\n" name))
        results)
    tests

(* ---------------------------------------------------------------- E25 *)

(* What [run] does after the fixpoint: every relation's sorted view
   (Relation.to_list, the integer-rank sort), then the whole instance
   rendered into one Buffer in fact-file syntax. The sort is timed on
   fresh relation values, so each rep sorts cold; the render reads the
   views the sort left behind. *)
let e25 () =
  header "E25 | fact rendering: sorted view and full-instance render";
  row "  %-18s %8s | %9s %9s | %9s\n" "graph" "facts" "sort ms" "render ms"
    "bytes";
  List.iter
    (fun (name, n, g) ->
      let inst =
        (Datalog.Seminaive.eval tc_program g).Datalog.Seminaive.instance
      in
      let facts = Instance.total_facts inst in
      let (), ts =
        time_on (fresh_copy inst) (fun i ->
            Instance.fold (fun _ r () -> ignore (Relation.to_list r)) i ())
      in
      let text, tr = time (fun () -> Instance.to_string inst) in
      assert (String.equal text (Format.asprintf "%a" Instance.pp inst));
      let bytes = String.length text in
      record ~experiment:"e25" ~case:name ~n ~engine:"sorted-view"
        ~wall_ms:(1000. *. ts) ~stages:0 ~facts ();
      record ~experiment:"e25" ~case:name ~n ~engine:"render"
        ~wall_ms:(1000. *. tr) ~stages:0 ~facts
        ~metrics:[ ("bytes", bytes) ] ();
      row "  %-18s %8d | %s %s | %9d\n" name facts (ms ts) (ms tr) bytes)
    [
      ("random-300x900", 300, Graph_gen.random ~seed:12 300 900);
      ("random-1000x5000", 1000, Graph_gen.random ~seed:13 1000 5000);
    ]

(* ---------------------------------------------------------------- E36 *)

(* The fact loader on a seeded text of the social-ingest benchmark's
   shape, generated here: per person 5 follows (F), a city (Lives), 2
   topics (Likes), and a Blocked fact at even odds. The short case
   names values as that benchmark does (p12345, c7, t42: every token at
   most 7 bytes, the loader cache's packed keys); the long case gives
   every value a name of at least 12 bytes. Each rep loads one case,
   the cases alternating, after a [Gc.full_major]; the rows report the
   median wall time, ns per fact, the input bytes, the values the first
   load interned ([intern.values]), the minor-heap words it allocated
   per fact loaded ([minor_words_per_fact]: deterministic, so a change
   of what a fact costs to keep shows exactly) and the share of tokens
   of at most 7 bytes. *)
let social_text ~seed ~people ~names:(person, city, topic) =
  let rng = Random.State.make [| 0x36; seed; people |] in
  let cities = max 1 (people / 200) and topics = max 2 (people / 100) in
  let b = Buffer.create (people * 160) in
  let fact pred args =
    Buffer.add_string b pred;
    Buffer.add_char b '(';
    Buffer.add_string b (String.concat ", " args);
    Buffer.add_string b ").\n"
  in
  (* [k] distinct draws from [0, n) other than [skip] *)
  let sample k n skip =
    let rec go acc =
      if List.length acc = k then List.rev acc
      else
        let x = Random.State.int rng n in
        go (if x = skip || List.mem x acc then acc else x :: acc)
    in
    go []
  in
  (* the follows first, as in the benchmark's text *)
  let lives = ref [] and likes = ref [] and blocked = ref [] in
  for p = 0 to people - 1 do
    List.iter (fun q -> fact "F" [ person p; person q ]) (sample 5 people p);
    lives := (p, Random.State.int rng cities) :: !lives;
    likes := List.map (fun t -> (p, t)) (sample 2 topics (-1)) @ !likes;
    if Random.State.bool rng then blocked := p :: !blocked
  done;
  List.iter (fun (p, c) -> fact "Lives" [ person p; city c ]) (List.rev !lives);
  List.iter (fun (p, t) -> fact "Likes" [ person p; topic t ]) (List.rev !likes);
  List.iter (fun p -> fact "Blocked" [ person p ]) (List.rev !blocked);
  Buffer.contents b

let e36 () =
  header "E36 | fact loading: Instance.parse_facts on a social-shaped text";
  let people = 20000 and nreps = 11 in
  let cases =
    [
      ( "social-20000-short",
        ( Printf.sprintf "p%d",
          Printf.sprintf "c%d",
          Printf.sprintf "t%d" ) );
      ( "social-20000-long",
        ( Printf.sprintf "person_%06d",
          Printf.sprintf "city_%07d",
          Printf.sprintf "topic_%06d" ) );
    ]
    |> List.map (fun (case, names) ->
           (case, social_text ~seed:1 ~people ~names))
  in
  (* the first load of each case, untimed: facts, interned values, minor
     words per fact, and the share of tokens of at most 7 bytes *)
  let shape =
    List.map
      (fun (_, text) ->
        let v0 = Value.Intern.size () in
        let w0 = Gc.minor_words () in
        let inst = Instance.parse_facts text in
        let words = Gc.minor_words () -. w0 in
        let short = ref 0 and tokens = ref 0 in
        Instance.iter_facts
          (fun _ t ->
            Array.iter
              (fun v ->
                incr tokens;
                if String.length (Value.to_string v) <= 7 then incr short)
              (Tuple.values t))
          inst;
        ( Instance.total_facts inst,
          Value.Intern.size () - v0,
          words /. float_of_int (Instance.total_facts inst),
          100 * !short / max 1 !tokens ))
      cases
  in
  let times = List.map (fun _ -> ref []) cases in
  for _ = 1 to nreps do
    List.iter2
      (fun (_, text) ts ->
        Gc.full_major ();
        let t0 = Observe.Trace.now () in
        ignore (Sys.opaque_identity (Instance.parse_facts text));
        ts := (Observe.Trace.now () -. t0) :: !ts)
      cases times
  done;
  row "  %-20s %8s %9s | %9s %11s | %7s %10s %7s\n" "case" "facts" "bytes"
    "median ms" "ns per fact" "values" "words/fact" "short %";
  List.iteri
    (fun k (case, text) ->
      let facts, values, words, short = List.nth shape k in
      let ts = List.sort Float.compare !(List.nth times k) in
      let med = List.nth ts (nreps / 2) in
      let ns_per_fact = int_of_float (med *. 1e9 /. float_of_int facts) in
      let bytes = String.length text in
      record ~experiment:"e36" ~case ~n:people ~engine:"parse_facts"
        ~wall_ms:(1000. *. med) ~stages:0 ~facts
        ~metrics:
          [
            ("intern.values", values);
            ("bytes", bytes);
            ("ns_per_fact", ns_per_fact);
            ("short_tokens_pct", short);
          ]
        ~ratios:[ ("minor_words_per_fact", words) ]
        ();
      row "  %-20s %8d %9d | %s %11d | %7d %10.2f %7d\n" case facts bytes
        (ms med) ns_per_fact values words short)
    cases

(* ------------------------------------------------------------- driver *)

let all =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5);
    ("e6", e6); ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10);
    ("e11", e11); ("e12", e12); ("e13", e13); ("e14", e14); ("e15", e15);
    ("e16", e16); ("e17", e17); ("e19", e19);
    ("e21", e21); ("e22", e22); ("e25", e25); ("e36", e36);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* --json <file>: after the selected experiments run, dump the recorded
     timing rows (experiment, case, n, engine, wall ms, stages, facts). *)
  let rec split_json acc = function
    | [] -> (List.rev acc, None)
    | "--json" :: file :: rest -> (List.rev acc @ rest, Some file)
    | [ "--json" ] ->
        Printf.eprintf "--json requires a file argument\n";
        exit 2
    | "--reps" :: n :: rest ->
        (match int_of_string_opt n with
        | Some k when k >= 1 -> reps := k
        | _ ->
            Printf.eprintf "--reps requires a positive integer\n";
            exit 2);
        split_json acc rest
    | [ "--reps" ] ->
        Printf.eprintf "--reps requires a positive integer\n";
        exit 2
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some k when k >= 1 -> Parallel.Pool.set_jobs k
        | _ ->
            Printf.eprintf "--jobs requires a positive integer\n";
            exit 2);
        split_json acc rest
    | [ "--jobs" ] ->
        Printf.eprintf "--jobs requires a positive integer\n";
        exit 2
    | a :: rest -> split_json (a :: acc) rest
  in
  let args, json_file = split_json [] args in
  (match args with
  | [] ->
      List.iter (fun (_, f) -> f ()) all;
      bechamel_kernels ()
  | [ "bechamel" ] -> bechamel_kernels ()
  | ids ->
      List.iter
        (fun id ->
          match List.assoc_opt id all with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown experiment %s (e1..e22, e25, e36, bechamel)\n"
                id;
              exit 2)
        ids);
  match json_file with None -> () | Some file -> write_json file
