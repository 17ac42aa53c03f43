(* The observability layer (lib/observe): span nesting and ordering,
   counter aggregation, the per-round metrics engines report through it,
   and the machine-readable JSONL trace schema. *)
open Relational
open Helpers
module T = Observe.Trace

(* --- spans: nesting, ordering, close fields ------------------------- *)

let test_span_nesting () =
  let sink, recorded = T.memory_sink () in
  let ctx = T.make ~sinks:[ sink ] () in
  T.open_span ctx ~kind:"run" "outer";
  T.open_span ctx ~kind:"round" "0";
  T.close_span ctx ~fields:[ T.fint "delta" 3 ] ();
  T.open_span ctx ~kind:"round" "1";
  T.close_span ctx ~fields:[ T.fint "delta" 0 ] ();
  T.close_span ctx ();
  T.finish ctx;
  match recorded () with
  | [
   T.Opened (outer, _);
   T.Opened (r0, _);
   T.Closed (r0', _, f0);
   T.Opened (r1, _);
   T.Closed (r1', _, f1);
   T.Closed (outer', _, _);
   T.Finished _;
  ] ->
      Alcotest.(check int) "root sid" 1 outer.T.sid;
      Alcotest.(check int) "root has no parent" 0 outer.T.parent;
      Alcotest.(check int) "round 0 nests under run" outer.T.sid r0.T.parent;
      Alcotest.(check int) "round 1 nests under run" outer.T.sid r1.T.parent;
      Alcotest.(check bool) "sids increase" true (r1.T.sid > r0.T.sid);
      Alcotest.(check int) "close matches open (r0)" r0.T.sid r0'.T.sid;
      Alcotest.(check int) "close matches open (r1)" r1.T.sid r1'.T.sid;
      Alcotest.(check int) "run closes last" outer.T.sid outer'.T.sid;
      Alcotest.(check bool) "close fields carried" true
        (f0 = [ T.fint "delta" 3 ] && f1 = [ T.fint "delta" 0 ])
  | events ->
      Alcotest.failf "unexpected event stream (%d events)" (List.length events)

let test_finish_closes_abandoned_spans () =
  (* an engine bailing out with an exception must still yield a balanced
     stream: finish closes whatever is left open, innermost first *)
  let sink, recorded = T.memory_sink () in
  let ctx = T.make ~sinks:[ sink ] () in
  T.open_span ctx ~kind:"run" "outer";
  T.open_span ctx ~kind:"round" "0";
  T.finish ctx;
  let closes =
    List.filter_map
      (function T.Closed (s, _, _) -> Some s.T.name | _ -> None)
      (recorded ())
  in
  Alcotest.(check (list string)) "innermost closed first" [ "0"; "outer" ]
    closes

let test_unbalanced_close_ignored () =
  let ctx = T.make () in
  T.close_span ctx ();
  (* no open span: must not raise *)
  T.open_span ctx ~kind:"run" "r";
  T.close_span ctx ();
  T.close_span ctx ();
  T.finish ctx;
  let aggs = T.span_aggregates ctx in
  Alcotest.(check int) "exactly one closed span" 1
    (List.fold_left (fun acc (_, n, _) -> acc + n) 0 aggs)

let test_null_ctx_inert () =
  Alcotest.(check bool) "null is disabled" false (T.enabled T.null);
  T.open_span T.null ~kind:"run" "r";
  T.add T.null "c" 5;
  T.close_span T.null ();
  T.finish T.null;
  Alcotest.(check int) "null accumulates nothing" 0 (T.counter T.null "c");
  Alcotest.(check bool) "null retains nothing" true
    (T.retained_spans T.null = [])

(* --- counters: accumulation, gauges, sorted dump --------------------- *)

let test_counter_aggregation () =
  let ctx = T.make () in
  T.add ctx "b.count" 3;
  T.incr ctx "b.count";
  T.add ctx "a.count" 2;
  T.gauge_max ctx "z.max" 4;
  T.gauge_max ctx "z.max" 9;
  T.gauge_max ctx "z.max" 7;
  T.finish ctx;
  Alcotest.(check int) "absent counter reads 0" 0 (T.counter ctx "nope");
  Alcotest.(check int) "add + incr accumulate" 4 (T.counter ctx "b.count");
  Alcotest.(check int) "gauge keeps the max" 9 (T.counter ctx "z.max");
  Alcotest.(check (list (pair string int)))
    "counters sorted by name"
    [ ("a.count", 2); ("b.count", 4); ("z.max", 9) ]
    (T.counters ctx)

(* A counter, gauge or histogram by key is the same entry as by name,
   and merges the same way. *)
let test_keys () =
  let ctx = T.make () in
  let k = T.key "k.count" and g = T.key "k.max" and h = T.key "k.lat" in
  Alcotest.(check bool) "one key per name" true (T.key "k.count" = k);
  T.add_key ctx k 3;
  T.incr ctx "k.count";
  T.incr_key ctx k;
  T.max_key ctx g 4;
  T.gauge_max ctx "k.max" 2;
  T.add_key ctx (T.key "k.zero") 0;
  T.observe_s_key ctx h 1e-6;
  T.observe_s ctx "k.lat" 2e-6;
  Alcotest.(check (list (pair string int)))
    "keyed and named updates meet"
    [ ("k.count", 5); ("k.max", 4); ("k.zero", 0) ]
    (T.counters ctx);
  (match T.histogram ctx "k.lat" with
  | Some d -> Alcotest.(check int) "two samples" 2 d.T.n
  | None -> Alcotest.fail "histogram missing");
  let other = T.make () in
  T.max_key other g 9;
  T.add_key other k 1;
  T.merge_counters ctx other;
  Alcotest.(check int) "counters add" 6 (T.counter ctx "k.count");
  Alcotest.(check int) "gauges max" 9 (T.counter ctx "k.max");
  T.add_key T.null k 1;
  Alcotest.(check int) "null keeps nothing" 0 (T.counter T.null "k.count")

(* [next_span] closes the innermost span and opens the next at the same
   instant: the stream reads close then open, and the spans tile. *)
let test_next_span () =
  let sink, recorded = T.memory_sink () in
  let ctx = T.make ~sinks:[ sink ] () in
  T.open_span ctx ~kind:"run" "r";
  T.open_span ctx ~kind:"round" "0";
  T.next_span ctx ~fields:[ T.fint "delta" 2 ] ~kind:"round" "1";
  T.close_span ctx ~fields:[ T.fint "delta" 0 ] ();
  T.close_span ctx ();
  T.finish ctx;
  let stream =
    List.filter (function T.Finished _ -> false | _ -> true) (recorded ())
  in
  (match stream with
  | [
   T.Opened (run, _);
   T.Opened (r0, _);
   T.Closed (c0, d0, [ ("delta", T.Int 2) ]);
   T.Opened (r1, _);
   T.Closed (c1, _, [ ("delta", T.Int 0) ]);
   T.Closed (c2, _, _);
  ] ->
      Alcotest.(check int) "round 0 closed first" r0.T.sid c0.T.sid;
      Alcotest.(check int) "round 1 is round 0's sibling" run.T.sid r1.T.parent;
      Alcotest.(check (float 0.)) "round 1 starts as round 0 ends"
        (r0.T.t0 +. d0) r1.T.t0;
      Alcotest.(check int) "then round 1" r1.T.sid c1.T.sid;
      Alcotest.(check int) "then the run" run.T.sid c2.T.sid
  | _ -> Alcotest.fail "unexpected span stream");
  match T.histogram ctx "span.round" with
  | Some d -> Alcotest.(check int) "two round samples" 2 d.T.n
  | None -> Alcotest.fail "span.round missing"

let test_finish_reaches_sink () =
  let sink, recorded = T.memory_sink () in
  let ctx = T.make ~sinks:[ sink ] () in
  T.add ctx "k" 7;
  T.finish ctx;
  match List.rev (recorded ()) with
  | T.Finished (counters, _) :: _ ->
      Alcotest.(check (list (pair string int))) "final dump" [ ("k", 7) ]
        counters
  | _ -> Alcotest.fail "finish did not reach the sink"

(* --- histograms: buckets, percentiles, cross-domain merge ------------- *)

let dist name ctx =
  match T.histogram ctx name with
  | Some d -> d
  | None -> Alcotest.failf "histogram %s missing" name

let test_hist_single_value_exact () =
  let ctx = T.make () in
  T.observe_ns ctx "h" 7;
  let d = dist "h" ctx in
  (* values below 16 ns land in exact unit buckets *)
  Alcotest.(check int) "n" 1 d.T.n;
  Alcotest.(check int) "p50 exact" 7 d.T.p50;
  Alcotest.(check int) "p99 exact" 7 d.T.p99;
  Alcotest.(check int) "max" 7 d.T.max_ns;
  Alcotest.(check int) "sum" 7 d.T.sum_ns

let test_hist_bucket_boundaries () =
  (* powers of two are bucket lower bounds, so they report exactly;
     arbitrary values under-report by at most 12.5% (8 sub-buckets per
     octave) and are clamped by the observed max *)
  let ctx = T.make () in
  T.observe_ns ctx "pow2" 1024;
  Alcotest.(check int) "power of two is a bucket floor" 1024
    (dist "pow2" ctx).T.p50;
  let ctx2 = T.make () in
  T.observe_ns ctx2 "v" 1000;
  let p = (dist "v" ctx2).T.p50 in
  Alcotest.(check bool)
    (Printf.sprintf "p50 %d within 12.5%% below 1000" p)
    true
    (p <= 1000 && float_of_int p >= 0.875 *. 1000.);
  (* negative durations (clock went backwards) clamp to 0, not crash *)
  let ctx3 = T.make () in
  T.observe_ns ctx3 "neg" (-5);
  Alcotest.(check int) "negative clamps to 0" 0 (dist "neg" ctx3).T.max_ns

let test_hist_percentiles_monotone () =
  let ctx = T.make () in
  let vmax = ref 0 and vsum = ref 0 in
  for i = 1 to 1000 do
    let v = i * i * 37 in
    vmax := max !vmax v;
    vsum := !vsum + v;
    T.observe_ns ctx "h" v
  done;
  let d = dist "h" ctx in
  Alcotest.(check int) "n" 1000 d.T.n;
  Alcotest.(check int) "max exact" !vmax d.T.max_ns;
  Alcotest.(check int) "sum exact" !vsum d.T.sum_ns;
  Alcotest.(check bool) "p50 <= p90 <= p99 <= max" true
    (d.T.p50 <= d.T.p90 && d.T.p90 <= d.T.p99 && d.T.p99 <= d.T.max_ns)

let test_hist_empty () =
  let ctx = T.make () in
  Alcotest.(check bool) "unrecorded histogram is absent" true
    (T.histogram ctx "nope" = None);
  Alcotest.(check bool) "no histograms dumped" true (T.histograms ctx = [])

let test_hist_merge_across_ctxs () =
  (* the cross-domain story: each worker records into its own context and
     the barrier merges them — merged count must be the sum of per-domain
     counts, max the overall max, sum the total *)
  let dst = T.make () in
  let per_worker = [ 3; 5; 7; 11 ] in
  List.iteri
    (fun w k ->
      let src = T.make () in
      for i = 1 to k do
        T.observe_ns src "par.task" ((1 + w) * 1000 * i)
      done;
      T.merge_counters dst src)
    per_worker;
  let d = dist "par.task" dst in
  Alcotest.(check int) "merged count is the sum" (3 + 5 + 7 + 11) d.T.n;
  Alcotest.(check int) "merged max" (4 * 1000 * 11) d.T.max_ns;
  Alcotest.(check int) "merged sum"
    (List.fold_left ( + ) 0
       (List.concat
          (List.mapi
             (fun w k -> List.init k (fun i -> (1 + w) * 1000 * (i + 1)))
             per_worker)))
    d.T.sum_ns;
  Alcotest.(check bool) "merged p99 <= max" true (d.T.p99 <= d.T.max_ns)

let test_hist_reaches_sink () =
  let sink, recorded = T.memory_sink () in
  let ctx = T.make ~sinks:[ sink ] () in
  T.observe_ns ctx "h" 42;
  T.finish ctx;
  match List.rev (recorded ()) with
  | T.Finished (_, hists) :: _ -> (
      match List.assoc_opt "h" hists with
      | Some d -> Alcotest.(check int) "histogram reaches the sink" 1 d.T.n
      | None -> Alcotest.fail "histogram missing from the summary")
  | _ -> Alcotest.fail "finish did not reach the sink"

let test_par_task_histogram_j4 () =
  (* engine-level: a parallel semi-naive run at -j 4 samples one
     [par.task] latency per fired task, pooled across worker domains at
     the barrier merge — the histogram count must equal the [par.tasks]
     counter summed over the same workers *)
  Parallel.Pool.set_jobs 4;
  Fun.protect ~finally:(fun () -> Parallel.Pool.set_jobs 1) @@ fun () ->
  let ctx = T.make () in
  ignore (Datalog.Seminaive.eval ~trace:ctx tc_program (Graph_gen.chain 12));
  T.finish ctx;
  let tasks = T.counter ctx "par.tasks" in
  Alcotest.(check bool) "parallel path fired tasks" true (tasks > 0);
  Alcotest.(check int) "par.task samples = par.tasks counter" tasks
    (dist "par.task" ctx).T.n

(* --- engine metrics: semi-naive rounds on a chain --------------------- *)

(* On a chain of n nodes (n-1 edges), semi-naive TC applies Γ exactly n
   times: round 0 derives the n-1 edges, each later round the paths one
   hop longer, and the last round derives nothing, proving the fixpoint.
   The per-round delta close-fields must shrink monotonically to 0. *)
let test_seminaive_chain_rounds () =
  let n = 6 in
  let sink, recorded = T.memory_sink () in
  let ctx = T.make ~sinks:[ sink ] () in
  let res = Datalog.Seminaive.eval ~trace:ctx tc_program (Graph_gen.chain n) in
  T.finish ctx;
  let deltas =
    List.filter_map
      (function
        | T.Closed (s, _, fields) when s.T.kind = "round" ->
            (match List.assoc_opt "delta" fields with
            | Some (T.Int d) -> Some d
            | _ -> Alcotest.failf "round %s closed without a delta" s.T.name)
        | _ -> None)
      (recorded ())
  in
  Alcotest.(check int) "exactly n rounds" n (List.length deltas);
  Alcotest.(check int) "fixpoint.rounds counter agrees" n
    (T.counter ctx "fixpoint.rounds");
  Alcotest.(check int) "rounds = stages + 1" (res.Datalog.Seminaive.stages + 1)
    n;
  Alcotest.(check (list int))
    "deltas shrink monotonically to 0"
    (List.init n (fun i -> n - 1 - i))
    deltas;
  Alcotest.(check int) "delta_max is the first delta" (n - 1)
    (T.counter ctx "fixpoint.delta_max")

let test_rule_firings_counted () =
  let ctx = T.make () in
  ignore
    (Datalog.Seminaive.eval ~trace:ctx tc_program (Graph_gen.chain 4));
  T.finish ctx;
  (* chain n0->n1->n2->n3: base rule fires 3x, recursive rule 3x (paths of
     length 2 and 3) *)
  Alcotest.(check int) "base rule firings" 3
    (T.counter ctx "rule_firings.r0:T");
  Alcotest.(check int) "recursive rule firings" 3
    (T.counter ctx "rule_firings.r1:T")

(* --- JSONL trace schema across the engines ---------------------------- *)

(* Run an engine under a jsonl sink wrapped in a run span, then check
   every emitted line against the documented schema via
   Report.validate_line — the golden guarantee behind --trace. *)
let jsonl_run name f =
  let buf = Buffer.create 256 in
  let sink =
    Observe.Report.jsonl_sink ~write:(fun line ->
        Buffer.add_string buf line;
        Buffer.add_char buf '\n')
  in
  let ctx = T.make ~sinks:[ sink ] () in
  T.open_span ctx ~kind:"run" name;
  f ctx;
  T.close_span ctx ();
  T.finish ctx;
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n' (Buffer.contents buf))
  in
  if List.length lines < 3 then
    Alcotest.failf "%s: trace too short (%d lines)" name (List.length lines);
  List.iter
    (fun line ->
      match Observe.Report.validate_line line with
      | Ok _ -> ()
      | Error msg ->
          Alcotest.failf "%s: invalid trace line (%s): %s" name msg line)
    lines;
  (* the summary line closes every stream *)
  match Observe.Report.validate_line (List.nth lines (List.length lines - 1)) with
  | Ok "summary" -> ()
  | Ok other -> Alcotest.failf "%s: stream ends with %s, not summary" name other
  | Error msg -> Alcotest.failf "%s: bad final line: %s" name msg

let win_program = prog "win(X) :- moves(X, Y), !win(Y)."

let comp_tc_program =
  prog
    {|
    T(X, Y) :- G(X, Y).
    T(X, Y) :- G(X, Z), T(Z, Y).
    CT(X, Y) :- !T(X, Y).
  |}

let test_trace_schema_all_engines () =
  let tc_input = Instance.set "G" (pairs [ ("a", "b"); ("b", "c") ]) Instance.empty in
  let cyc = facts "moves(a, b). moves(b, a)." in
  let engines =
    [
      ("naive", fun trace -> ignore (Datalog.Naive.eval ~trace tc_program tc_input));
      ( "seminaive",
        fun trace -> ignore (Datalog.Seminaive.eval ~trace tc_program tc_input) );
      ( "stratified",
        fun trace ->
          ignore (Datalog.Stratified.eval ~trace comp_tc_program tc_input) );
      ( "semipositive",
        fun trace ->
          ignore
            (Datalog.Semipositive.eval ~trace
               (prog "NG(X, Y) :- adom(X), adom(Y), !G(X, Y). adom(X) :- G(X, Y). adom(Y) :- G(X, Y).")
               tc_input) );
      ( "wellfounded",
        fun trace -> ignore (Datalog.Wellfounded.eval ~trace win_program cyc) );
      ( "stable",
        fun trace -> ignore (Datalog.Stable.models ~trace win_program cyc) );
      ( "inflationary",
        fun trace -> ignore (Datalog.Inflationary.eval ~trace tc_program tc_input) );
      ( "noninflationary",
        fun trace ->
          ignore (Datalog.Noninflationary.run ~trace tc_program tc_input) );
      ( "invent",
        fun trace ->
          ignore
            (Datalog.Invent.run ~trace (prog "tag(X, N) :- item(X).")
               (facts "item(a). item(b).")) );
      ( "magic",
        fun trace ->
          ignore
            (Datalog.Magic.answer ~trace tc_program tc_input
               (Datalog.Ast.atom "T" [ Datalog.Ast.sym "a"; Datalog.Ast.var "Y" ])) );
      ( "aggregate",
        fun trace ->
          let body =
            (Datalog.Parser.parse_rule "agg__probe :- order(C, I)").Datalog.Ast.body
          in
          ignore
            (Datalog.Aggregate.eval ~trace
               [
                 {
                   Datalog.Aggregate.rules = [];
                   aggregates =
                     [
                       {
                         Datalog.Aggregate.pred = "per_cust";
                         group_by = [ "C" ];
                         func = Datalog.Aggregate.Count;
                         body;
                       };
                     ];
                 };
               ]
               (facts "order(alice, widget). order(bob, gizmo).")) );
      ( "production",
        fun trace ->
          ignore
            (Datalog.Production.run ~trace
               (prog "done(X) :- todo(X), !done(X).")
               (facts "todo(a). todo(b).")) );
      ( "choice",
        fun trace ->
          ignore
            (Nondet.Choice.eval ~seed:3 ~trace
               [
                 {
                   Nondet.Choice.rule =
                     Datalog.Parser.parse_rule "T(X, Y) :- G(X, Y).";
                   choices = [];
                 };
               ]
               tc_input) );
      ( "chase",
        fun trace ->
          ignore
            (Ontology.Chase.chase ~trace
               [
                 Datalog.Parser.parse_rule "worksIn(E, D) :- emp(E).";
                 Datalog.Parser.parse_rule "hasManager(D, M) :- worksIn(E, D).";
               ]
               (facts "emp(e0). emp(e1).")) );
    ]
  in
  List.iter (fun (name, f) -> jsonl_run name f) engines

(* The active domain is materialized only for a plan that reads it: a
   safe (range-restricted) run records no "adom" span, a run with a
   variable bound only by negation (Example 4.4) records exactly one,
   whose [values] field is |adom(P, K)|. *)
let adom_spans f =
  let sink, recorded = Observe.Trace.memory_sink () in
  let trace = Observe.Trace.make ~sinks:[ sink ] () in
  f trace;
  Observe.Trace.finish trace;
  List.filter_map
    (function
      | Observe.Trace.Closed (sp, _, fields) when sp.Observe.Trace.kind = "adom"
        ->
          Some (List.assoc "values" fields)
      | _ -> None)
    (recorded ())

let test_adom_only_when_read () =
  let tc_input = facts "G(a, b). G(b, c)." in
  let safe =
    [
      ("naive", fun trace -> ignore (Datalog.Naive.eval ~trace tc_program tc_input));
      ( "seminaive",
        fun trace -> ignore (Datalog.Seminaive.eval ~trace tc_program tc_input) );
      ( "stratified",
        fun trace ->
          ignore
            (Datalog.Stratified.eval ~trace
               (prog "T(X, Y) :- G(X, Y). S(X) :- G(X, Y), !T(Y, X).")
               tc_input) );
      ( "semipositive",
        fun trace ->
          ignore
            (Datalog.Semipositive.eval ~trace
               (prog "S(X) :- G(X, Y), !G(Y, X).") tc_input) );
      ( "wellfounded",
        fun trace ->
          ignore
            (Datalog.Wellfounded.eval ~trace win_program
               (facts "moves(a, b). moves(b, a).")) );
      ( "inflationary",
        fun trace -> ignore (Datalog.Inflationary.eval ~trace tc_program tc_input) );
      ( "noninflationary",
        fun trace ->
          ignore (Datalog.Noninflationary.run ~trace tc_program tc_input) );
      ( "production",
        fun trace ->
          ignore
            (Datalog.Production.run ~trace
               (prog "done(X) :- todo(X), !done(X).")
               (facts "todo(a). todo(b).")) );
      ( "annot",
        fun trace ->
          ignore (Datalog.Annot_eval.run ~trace Semiring.Count tc_program tc_input)
      );
      ( "magic",
        fun trace ->
          ignore
            (Datalog.Magic.answer ~trace tc_program tc_input
               (Datalog.Ast.atom "T" [ Datalog.Ast.sym "a"; Datalog.Ast.var "Y" ])) );
      ( "serve",
        fun trace -> ignore (Server.Engine.create ~trace tc_program tc_input) );
      ( "nondet",
        fun trace ->
          ignore
            (Nondet.Nd_eval.run ~seed:1 ~trace
               (prog "!G(X, Y) :- G(X, Y), G(Y, X).")
               (facts "G(a, b). G(b, a).")) );
    ]
  in
  List.iter
    (fun (name, f) ->
      Alcotest.(check int) (name ^ ": no adom span") 0 (List.length (adom_spans f)))
    safe;
  (* adom(P, K) = {a, b, c} from K plus the program constant d *)
  let needs =
    [
      ( "stratified",
        fun trace ->
          ignore
            (Datalog.Stratified.eval ~trace
               (prog "T(X, Y) :- G(X, Y). C(X, d) :- !T(X, d).")
               tc_input) );
      ( "semipositive",
        fun trace ->
          ignore
            (Datalog.Semipositive.eval ~trace (prog "C(X, d) :- !G(X, d).")
               tc_input) );
      ( "wellfounded",
        fun trace ->
          ignore
            (Datalog.Wellfounded.eval ~trace (prog "C(X, d) :- !G(X, d).")
               tc_input) );
      ( "inflationary",
        fun trace ->
          ignore
            (Datalog.Inflationary.eval ~trace (prog "C(X, d) :- !G(X, d).")
               tc_input) );
      ( "noninflationary",
        fun trace ->
          ignore
            (Datalog.Noninflationary.run ~trace (prog "C(X, d) :- !G(X, d).")
               tc_input) );
    ]
  in
  List.iter
    (fun (name, f) ->
      match adom_spans f with
      | [ Observe.Trace.Int n ] -> Alcotest.(check int) (name ^ ": values") 4 n
      | spans ->
          Alcotest.failf "%s: %d adom spans, expected one" name
            (List.length spans))
    needs

(* --- JSON string escaping ------------------------------------------ *)

(* the byte-at-a-time escaper every string took before the scan-then-copy
   fast path: the oracle for both paths *)
let oracle_escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* strings of fact-like text, with or without the bytes that need
   escaping, so both paths of the encoder are taken *)
let json_string_gen =
  let open QCheck.Gen in
  let plain = oneofl [ "T(v1, v2)."; "a"; " "; "_x"; "'Abc'"; "50%" ] in
  let special =
    oneofl [ "\""; "\\"; "\n"; "\r"; "\t"; "\x00"; "\x01"; "\x1f"; "\x7f";
             "\xc3\xa9"; "\xe2\x88\x80"; "\xf0\x9f\x98\x80" ]
  in
  let* with_special = bool in
  map (String.concat "")
    (list_size (0 -- 12)
       (if with_special then frequency [ (3, plain); (1, special) ] else plain))

let prop_json_escape =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"JSON string escaping: fast = slow path"
       (QCheck.make ~print:String.escaped json_string_gen)
       (fun s -> String.equal (Observe.Json.to_string (Str s)) (oracle_escape s)))

let suite =
  [
    Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
    Alcotest.test_case "finish closes abandoned spans" `Quick
      test_finish_closes_abandoned_spans;
    Alcotest.test_case "unbalanced close is ignored" `Quick
      test_unbalanced_close_ignored;
    Alcotest.test_case "null context is inert" `Quick test_null_ctx_inert;
    Alcotest.test_case "counter aggregation" `Quick test_counter_aggregation;
    Alcotest.test_case "counters by key" `Quick test_keys;
    Alcotest.test_case "next_span tiles spans" `Quick test_next_span;
    Alcotest.test_case "finish reaches the sink" `Quick test_finish_reaches_sink;
    Alcotest.test_case "histogram: single value exact" `Quick
      test_hist_single_value_exact;
    Alcotest.test_case "histogram: bucket boundaries" `Quick
      test_hist_bucket_boundaries;
    Alcotest.test_case "histogram: percentiles monotone" `Quick
      test_hist_percentiles_monotone;
    Alcotest.test_case "histogram: empty" `Quick test_hist_empty;
    Alcotest.test_case "histogram: cross-domain merge" `Quick
      test_hist_merge_across_ctxs;
    Alcotest.test_case "histogram: reaches the sink" `Quick
      test_hist_reaches_sink;
    Alcotest.test_case "histogram: par.task at -j 4" `Quick
      test_par_task_histogram_j4;
    Alcotest.test_case "semi-naive chain: n rounds, shrinking deltas" `Quick
      test_seminaive_chain_rounds;
    Alcotest.test_case "rule firings counted" `Quick test_rule_firings_counted;
    Alcotest.test_case "JSONL schema across engines" `Quick
      test_trace_schema_all_engines;
    Alcotest.test_case "adom computed only when a plan reads it" `Quick
      test_adom_only_when_read;
    prop_json_escape;
  ]
