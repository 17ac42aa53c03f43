(* Tests for the domain pool and the parallel evaluation paths.

   The contract under test is strong: for every engine and every job
   count, the computed instances must be byte-identical to a sequential
   run. Trace counters are explicitly NOT part of that contract (e.g.
   [fixpoint.tuples_derived] counts the matches of sliced delta passes,
   which need not equal one whole pass's), so these tests compare
   instances — except for the round-shape counters, which the one
   semi-naive loop makes deterministic. *)

open Relational
open Helpers

(* Run [f] with the global pool sized to [j] jobs, restoring the
   single-job (sequential) configuration afterwards even on failure. *)
let with_jobs j f =
  Parallel.Pool.set_jobs j;
  Fun.protect ~finally:(fun () -> Parallel.Pool.set_jobs 1) f

(* ------------------------------------------------------------------ *)
(* Pool mechanics                                                      *)
(* ------------------------------------------------------------------ *)

let test_pool_acquire_size () =
  with_jobs 4 (fun () ->
      match Parallel.Pool.acquire () with
      | None -> Alcotest.fail "acquire returned None at jobs=4"
      | Some pool ->
          Fun.protect
            ~finally:(fun () -> Parallel.Pool.release pool)
            (fun () ->
              Alcotest.(check int) "pool size" 4 (Parallel.Pool.size pool)))

let test_pool_sequential_no_acquire () =
  (* jobs defaults to 1 in tests; there is no pool to acquire. *)
  Alcotest.(check int) "jobs" 1 (Parallel.Pool.jobs ());
  match Parallel.Pool.acquire () with
  | None -> ()
  | Some pool ->
      Parallel.Pool.release pool;
      Alcotest.fail "acquire returned a pool at jobs=1"

let test_pool_nested_acquire () =
  (* The global pool is exclusive: a nested fixpoint running inside a
     worker must see it busy and fall back to sequential evaluation. *)
  with_jobs 4 (fun () ->
      match Parallel.Pool.acquire () with
      | None -> Alcotest.fail "outer acquire failed"
      | Some pool ->
          Fun.protect
            ~finally:(fun () -> Parallel.Pool.release pool)
            (fun () ->
              (match Parallel.Pool.acquire () with
              | None -> ()
              | Some p2 ->
                  Parallel.Pool.release p2;
                  Alcotest.fail "nested acquire succeeded");
              (* released pools can be re-acquired *)
              ());
          match Parallel.Pool.acquire () with
          | None -> Alcotest.fail "re-acquire after release failed"
          | Some p3 -> Parallel.Pool.release p3)

let test_pool_run_covers_workers () =
  with_jobs 4 (fun () ->
      match Parallel.Pool.acquire () with
      | None -> Alcotest.fail "acquire failed"
      | Some pool ->
          Fun.protect
            ~finally:(fun () -> Parallel.Pool.release pool)
            (fun () ->
              let n = Parallel.Pool.size pool in
              let hits = Array.make n 0 in
              Parallel.Pool.run pool (fun w -> hits.(w) <- hits.(w) + 1);
              Array.iteri
                (fun w h ->
                  Alcotest.(check int)
                    (Printf.sprintf "worker %d ran once" w)
                    1 h)
                hits;
              (* a second job on the same pool works too *)
              let total = Atomic.make 0 in
              Parallel.Pool.run pool (fun _ -> Atomic.incr total);
              Alcotest.(check int) "second job" n (Atomic.get total)))

let test_pool_exception_propagates () =
  with_jobs 4 (fun () ->
      match Parallel.Pool.acquire () with
      | None -> Alcotest.fail "acquire failed"
      | Some pool ->
          Fun.protect
            ~finally:(fun () -> Parallel.Pool.release pool)
            (fun () ->
              (match
                 Parallel.Pool.run pool (fun w ->
                     if w = 2 then failwith "boom")
               with
              | () -> Alcotest.fail "expected the worker exception"
              | exception Failure msg ->
                  Alcotest.(check string) "message" "boom" msg);
              (* the pool survives a failed job *)
              let total = Atomic.make 0 in
              Parallel.Pool.run pool (fun _ -> Atomic.incr total);
              Alcotest.(check int)
                "pool usable after failure" 4 (Atomic.get total)))

let test_set_jobs_rejects_nonpositive () =
  match Parallel.Pool.set_jobs 0 with
  | () -> Alcotest.fail "set_jobs 0 should raise"
  | exception Invalid_argument _ -> ()

let test_run_phases_barrier () =
  (* Phase 2 on every worker must observe phase 1's writes from ALL
     workers — the inter-phase barrier is what makes that safe. *)
  with_jobs 4 (fun () ->
      match Parallel.Pool.acquire () with
      | None -> Alcotest.fail "acquire failed"
      | Some pool ->
          Fun.protect
            ~finally:(fun () -> Parallel.Pool.release pool)
            (fun () ->
              let n = Parallel.Pool.size pool in
              let marks = Array.make n false in
              let seen_all = Array.make n false in
              Parallel.Pool.run_phases pool
                [|
                  (fun w -> marks.(w) <- true);
                  (fun w -> seen_all.(w) <- Array.for_all Fun.id marks);
                |];
              Array.iteri
                (fun w ok ->
                  Alcotest.(check bool)
                    (Printf.sprintf "worker %d saw all phase-1 writes" w)
                    true ok)
                seen_all))

let test_run_phases_exception () =
  (* One worker failing in phase 1 must not deadlock the siblings at the
     barrier, and the exception must reach the caller. *)
  with_jobs 4 (fun () ->
      match Parallel.Pool.acquire () with
      | None -> Alcotest.fail "acquire failed"
      | Some pool ->
          Fun.protect
            ~finally:(fun () -> Parallel.Pool.release pool)
            (fun () ->
              let phase2 = Atomic.make 0 in
              (match
                 Parallel.Pool.run_phases pool
                   [|
                     (fun w -> if w = 1 then failwith "phase boom");
                     (fun _ -> Atomic.incr phase2);
                   |]
               with
              | () -> Alcotest.fail "expected the worker exception"
              | exception Failure msg ->
                  Alcotest.(check string) "message" "phase boom" msg);
              (* the failing worker skips its remaining phases; the
                 other three still ran phase 2 *)
              Alcotest.(check int) "siblings finished" 3 (Atomic.get phase2);
              (* the pool survives *)
              let total = Atomic.make 0 in
              Parallel.Pool.run pool (fun _ -> Atomic.incr total);
              Alcotest.(check int) "pool usable" 4 (Atomic.get total)))

(* ------------------------------------------------------------------ *)
(* Exchange mechanics                                                  *)
(* ------------------------------------------------------------------ *)

let tup l = Tuple.of_list (List.map Value.sym l)

let test_exchange_post_drain () =
  let ex = Parallel.Exchange.create 3 in
  Alcotest.(check bool) "first post" true
    (Parallel.Exchange.post ex ~src:0 ~dst:1 "P" (tup [ "a" ]));
  Alcotest.(check bool) "per-edge duplicate dropped" false
    (Parallel.Exchange.post ex ~src:0 ~dst:1 "P" (tup [ "a" ]));
  Alcotest.(check bool) "same fact, other edge" true
    (Parallel.Exchange.post ex ~src:2 ~dst:1 "P" (tup [ "a" ]));
  Alcotest.(check bool) "other pred, same edge" true
    (Parallel.Exchange.post ex ~src:0 ~dst:1 "Q" (tup [ "a" ]));
  Alcotest.(check int) "total posted" 3 (Parallel.Exchange.total_posted ex);
  let got = ref [] in
  Parallel.Exchange.drain ex ~dst:1 (fun ~src ~pred tuples ->
      got := (src, pred, List.length tuples) :: !got);
  (* sources ascending; within a source, preds in first-post order *)
  Alcotest.(check (list (triple int string int)))
    "drain order" [ (0, "P", 1); (0, "Q", 1); (2, "P", 1) ] (List.rev !got);
  (* buffers empty after a drain, but the per-edge memory persists *)
  let n = ref 0 in
  Parallel.Exchange.drain ex ~dst:1 (fun ~src:_ ~pred:_ _ -> incr n);
  Alcotest.(check int) "drained empty" 0 !n;
  Alcotest.(check bool) "duplicate still dropped after drain" false
    (Parallel.Exchange.post ex ~src:0 ~dst:1 "P" (tup [ "a" ]));
  Alcotest.(check int) "total unchanged" 3
    (Parallel.Exchange.total_posted ex)

(* ------------------------------------------------------------------ *)
(* Cross-engine determinism across job counts                          *)
(* ------------------------------------------------------------------ *)

let job_counts = [ 1; 2; 4; 8 ]

(* Render an engine's full output as a string at each job count and
   assert byte-identity with the sequential run. *)
let check_deterministic name render =
  let baseline = render () in
  List.iter
    (fun j ->
      let out = with_jobs j render in
      Alcotest.(check string)
        (Printf.sprintf "%s at -j %d matches sequential" name j)
        baseline out)
    job_counts

(* Stratified program with negation on top of recursion: vertices not
   reaching [bad] via T. *)
let comp_program =
  prog
    {|
      T(X, Y) :- G(X, Y).
      T(X, Y) :- G(X, Z), T(Z, Y).
      Safe(X) :- V(X), !T(X, "n3").
    |}

(* Two independent recursive SCCs plus a consumer: exercises the
   stratified wave planner (T1 and T2 are parallel groups, C a later
   wave). *)
let wave_program =
  prog
    {|
      T1(X, Y) :- G(X, Y).
      T1(X, Y) :- G(X, Z), T1(Z, Y).
      T2(X, Y) :- H(X, Y).
      T2(X, Y) :- H(X, Z), T2(Z, Y).
      C(X, Y) :- T1(X, Z), T2(Z, Y).
    |}

(* Win positions of the pebble game: the canonical well-founded test. *)
let win_program =
  prog {|
      Win(X) :- Moves(X, Y), !Win(Y).
    |}

let with_vertices inst =
  (* V(x) for every vertex mentioned by G, so comp_program can guard
     negation with a positive atom. *)
  let g = Instance.find "G" inst in
  let vs =
    Relation.fold
      (fun tup acc ->
        match Tuple.to_list tup with
        | [ a; b ] -> a :: b :: acc
        | _ -> acc)
      g []
  in
  let v_rel = Relation.of_rows (List.map (fun x -> [ x ]) vs) in
  Instance.set "V" v_rel inst

let test_pool_free_after_alternation () =
  (* The well-founded alternation calls the semi-naive loop once per
     step, from outside any worker: each call borrows the pool and
     returns it, so no call finds it busy and the pool is free after. *)
  with_jobs 4 (fun () ->
      let inst = Graph_gen.random ~name:"Moves" ~seed:9 20 40 in
      let trace = Observe.Trace.make ~sinks:[] () in
      ignore (Datalog.Wellfounded.eval ~trace win_program inst);
      Alcotest.(check int)
        "no fallbacks" 0
        (Observe.Trace.counter trace "par.pool.fallbacks");
      match Parallel.Pool.acquire () with
      | None -> Alcotest.fail "pool still held after the alternation"
      | Some p -> Parallel.Pool.release p)

let test_determinism_tc () =
  List.iter
    (fun seed ->
      let inst = Graph_gen.random ~seed 40 100 in
      check_deterministic
        (Printf.sprintf "naive tc seed=%d" seed)
        (fun () -> Instance.to_string (Datalog.Naive.eval tc_program inst).instance);
      check_deterministic
        (Printf.sprintf "seminaive tc seed=%d" seed)
        (fun () ->
          Instance.to_string (Datalog.Seminaive.eval tc_program inst).instance))
    [ 7; 21; 42 ]

let test_determinism_stratified () =
  List.iter
    (fun seed ->
      let inst = with_vertices (Graph_gen.random ~seed 30 70) in
      check_deterministic
        (Printf.sprintf "stratified comp seed=%d" seed)
        (fun () ->
          Instance.to_string (Datalog.Stratified.eval comp_program inst).instance))
    [ 3; 11 ]

let test_determinism_waves () =
  (* Distinct edge relations so the two TCs are genuinely independent. *)
  let g = Graph_gen.random ~seed:5 25 60 in
  let h = Graph_gen.random ~name:"H" ~seed:6 25 60 in
  let inst = Instance.union g h in
  check_deterministic "stratified waves" (fun () ->
      Instance.to_string (Datalog.Stratified.eval wave_program inst).instance)

let test_determinism_wellfounded () =
  List.iter
    (fun seed ->
      let inst = Graph_gen.random ~name:"Moves" ~seed 20 40 in
      check_deterministic
        (Printf.sprintf "wellfounded win seed=%d" seed)
        (fun () ->
          let r = Datalog.Wellfounded.eval win_program inst in
          Instance.to_string r.true_facts ^ "\n---\n"
          ^ Instance.to_string r.possible))
    [ 9; 17 ]

(* ------------------------------------------------------------------ *)
(* Round structure across job counts                                   *)
(* ------------------------------------------------------------------ *)

(* The semi-naive loop derives the same delta set per round at every
   worker count, so the round-shape counters and the number of "round"
   spans are deterministic across job counts (unlike derivation
   counts). *)
let round_shape run =
  let trace = Observe.Trace.make ~sinks:[] () in
  run trace;
  let spans =
    List.fold_left
      (fun n (kind, k, _) -> if kind = "round" then n + k else n)
      0
      (Observe.Trace.span_aggregates trace)
  in
  List.map
    (fun c -> (c, Observe.Trace.counter trace c))
    [ "fixpoint.rounds"; "fixpoint.delta_total"; "fixpoint.delta_max" ]
  @ [ ("round spans", spans) ]

let test_round_counters_across_jobs () =
  let tc_inst = Graph_gen.random ~seed:42 40 100 in
  let comp_inst = with_vertices (Graph_gen.random ~seed:11 30 70) in
  List.iter
    (fun (name, run) ->
      let baseline = round_shape run in
      List.iter
        (fun j ->
          Alcotest.(check (list (pair string int)))
            (Printf.sprintf "%s: round shape at -j %d matches -j 1" name j)
            baseline
            (with_jobs j (fun () -> round_shape run)))
        [ 2; 4 ])
    [
      ( "seminaive tc",
        fun trace -> ignore (Datalog.Seminaive.eval ~trace tc_program tc_inst)
      );
      ( "stratified comp",
        fun trace ->
          ignore (Datalog.Stratified.eval ~trace comp_program comp_inst) );
    ]

(* Random positive programs (multi-delta bodies included) and random
   stratified programs, over inputs that already store 0–3 facts of
   derived predicates: at -j 2 and -j 4 the printed instance equals the
   -j 1 run's, and so does the round shape. Where the stratified SCC-wave
   planner split a stratum into separate fixpoints ([par.waves] > 0),
   which changes the rounds by design, the groups still derive the -j 1
   run's new facts ([fixpoint.delta_total]) and every round of theirs is
   a round span in the report. *)
let prop_jobs_agree name pool eval =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:100 ~name
       (QCheck.make ~print:print_prog_inst
          QCheck.Gen.(prog_inst_gen pool >>= with_head_facts))
       (fun (p, i) ->
         let run () =
           let out = ref "" and waves = ref 0 in
           let shape =
             round_shape (fun trace ->
                 out := eval ~trace p i;
                 waves := Observe.Trace.counter trace "par.waves")
           in
           (!out, shape, !waves)
         in
         let out1, shape1, _ = run () in
         List.for_all
           (fun j ->
             let out, shape, waves = with_jobs j run in
             let get c sh = List.assoc c sh in
             out = out1
             &&
             if waves = 0 then shape = shape1
             else
               get "fixpoint.delta_total" shape
               = get "fixpoint.delta_total" shape1
               && get "round spans" shape = get "fixpoint.rounds" shape)
           [ 2; 4 ]))

let prop_positive_jobs_agree =
  prop_jobs_agree "random positive programs: -j 1 = 2 = 4"
    (rule_pool @ delta_stress_pool) (fun ~trace p i ->
      Instance.to_string (Datalog.Seminaive.eval ~trace p i).instance)

let prop_stratified_jobs_agree =
  prop_jobs_agree "random stratified programs: -j 1 = 2 = 4" strat_pool
    (fun ~trace p i ->
      QCheck.assume (Datalog.Stratify.is_stratifiable p);
      Instance.to_string (Datalog.Stratified.eval ~trace p i).instance)

let test_fallback_traced () =
  (* With the pool held, a parallel-eligible run falls back to
     sequential AND says so in the trace. *)
  with_jobs 4 (fun () ->
      match Parallel.Pool.acquire () with
      | None -> Alcotest.fail "outer acquire failed"
      | Some pool ->
          Fun.protect
            ~finally:(fun () -> Parallel.Pool.release pool)
            (fun () ->
              let inst = Graph_gen.random ~seed:7 20 50 in
              let seq =
                Instance.to_string
                  (Datalog.Seminaive.eval tc_program inst).instance
              in
              let trace = Observe.Trace.make ~sinks:[] () in
              let r = Datalog.Seminaive.eval ~trace tc_program inst in
              Alcotest.(check string)
                "fallback run matches" seq
                (Instance.to_string r.instance);
              Alcotest.(check bool)
                "par.pool.fallbacks counted" true
                (Observe.Trace.counter trace "par.pool.fallbacks" >= 1)))

let test_shard_skew_hub () =
  (* A star graph: every derived T tuple keys on the hub, so one shard
     owns all the fresh work and the skew gauge pegs at 100 * jobs. *)
  let inst =
    Instance.of_list
      [
        ( "G",
          List.init 50 (fun i ->
              [ Value.sym "hub"; Value.sym (Printf.sprintf "spoke%d" i) ]) );
      ]
  in
  let seq =
    Instance.to_string (Datalog.Seminaive.eval tc_program inst).instance
  in
  with_jobs 4 (fun () ->
      let trace = Observe.Trace.make ~sinks:[] () in
      let r = Datalog.Seminaive.eval ~trace tc_program inst in
      Alcotest.(check string)
        "hub graph matches sequential" seq
        (Instance.to_string r.instance);
      let skew = Observe.Trace.counter trace "par.shard_skew" in
      Alcotest.(check bool)
        (Printf.sprintf "par.shard_skew reported (got %d)" skew)
        true
        (skew >= 300 && skew <= 400))

(* ------------------------------------------------------------------ *)
(* Intern-table stress                                                 *)
(* ------------------------------------------------------------------ *)

let test_intern_stress () =
  (* Many domains race to first-intern the same fresh constants; every
     domain must observe the same id for the same value, and of_id must
     round-trip. 8 domains = 7 spawned + the current one. *)
  let rounds = 20 and per_round = 200 and ndom = 8 in
  for round = 0 to rounds - 1 do
    let values =
      Array.init per_round (fun k ->
          Value.sym (Printf.sprintf "par_stress_%d_%d" round k))
    in
    let ids = Array.make_matrix ndom per_round (-1) in
    let work d () =
      Array.iteri (fun k v -> ids.(d).(k) <- Value.Intern.id v) values
    in
    let domains =
      List.init (ndom - 1) (fun i -> Domain.spawn (work (i + 1)))
    in
    work 0 ();
    List.iter Domain.join domains;
    for d = 1 to ndom - 1 do
      Alcotest.(check (array int))
        (Printf.sprintf "round %d: domain %d ids agree" round d)
        ids.(0) ids.(d)
    done;
    Array.iteri
      (fun k id ->
        Alcotest.check value
          (Printf.sprintf "round %d: of_id roundtrip %d" round k)
          values.(k)
          (Value.Intern.of_id id))
      ids.(0);
    let distinct = List.sort_uniq compare (Array.to_list ids.(0)) in
    Alcotest.(check int)
      (Printf.sprintf "round %d: ids distinct" round)
      per_round (List.length distinct)
  done

let suite =
  [
    Alcotest.test_case "pool acquire size" `Quick test_pool_acquire_size;
    Alcotest.test_case "no pool at jobs=1" `Quick
      test_pool_sequential_no_acquire;
    Alcotest.test_case "nested acquire falls back" `Quick
      test_pool_nested_acquire;
    Alcotest.test_case "run covers all workers" `Quick
      test_pool_run_covers_workers;
    Alcotest.test_case "worker exception propagates" `Quick
      test_pool_exception_propagates;
    Alcotest.test_case "set_jobs rejects 0" `Quick
      test_set_jobs_rejects_nonpositive;
    Alcotest.test_case "pool free after alternation" `Quick
      test_pool_free_after_alternation;
    Alcotest.test_case "run_phases: barrier between phases" `Quick
      test_run_phases_barrier;
    Alcotest.test_case "run_phases: exception propagates" `Quick
      test_run_phases_exception;
    Alcotest.test_case "exchange: post/dedup/drain" `Quick
      test_exchange_post_drain;
    Alcotest.test_case "determinism: tc naive+seminaive" `Quick
      test_determinism_tc;
    Alcotest.test_case "determinism: stratified negation" `Quick
      test_determinism_stratified;
    Alcotest.test_case "determinism: stratified waves" `Quick
      test_determinism_waves;
    Alcotest.test_case "determinism: well-founded" `Quick
      test_determinism_wellfounded;
    Alcotest.test_case "round counters agree across jobs" `Quick
      test_round_counters_across_jobs;
    Alcotest.test_case "held pool: traced fallback" `Quick
      test_fallback_traced;
    Alcotest.test_case "hub graph: shard skew reported" `Quick
      test_shard_skew_hub;
    prop_positive_jobs_agree;
    prop_stratified_jobs_agree;
    Alcotest.test_case "intern table stress (8 domains)" `Quick
      test_intern_stress;
  ]
