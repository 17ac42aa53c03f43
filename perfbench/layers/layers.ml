(* In-process layer timer for the repo benchmark.

   Calls the public entry point of each layer that [datalog-unchained run]
   and [datalog-unchained serve] go through, times every call, harvests
   the counters and spans the engines emit through [Observe.Trace], and
   prints one JSON object of metrics on stdout.

     layers batch PROGRAM FACTS ENGINE ANSWER
       ENGINE is seminaive or stratified; ANSWER is a predicate name, or
       "-" to render the whole instance (the CLI without -a).
     layers serve PROGRAM FACTS SCHEDULE
       SCHEDULE holds one protocol request line per line; it is replayed
       twice against fresh engines: once through the layer calls one by
       one, once through [Server.Daemon.handle]. *)

open Relational

let read_file path = In_channel.with_open_bin path In_channel.input_all
let now = Observe.Trace.now

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let ms s = s *. 1e3
let us s = s *. 1e6

(* --- output ------------------------------------------------------------- *)

let metrics : (string * float) list ref = ref []
let emit k v = metrics := (k, if Float.is_finite v then v else 0.) :: !metrics
let emit_int k n = emit k (float_of_int n)

let print_metrics () =
  List.rev_map (fun (k, v) -> Printf.sprintf "%S: %.17g" k v) !metrics
  |> String.concat ", "
  |> Printf.printf "{%s}\n"

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* --- GC accounting: Gc.quick_stat deltas around each timed layer call --- *)

let gc_minor_words = ref 0.
let gc_major_collections = ref 0

let layer f =
  let s0 = Gc.quick_stat () in
  let r = time f in
  let s1 = Gc.quick_stat () in
  gc_minor_words := !gc_minor_words +. (s1.Gc.minor_words -. s0.Gc.minor_words);
  gc_major_collections :=
    !gc_major_collections + (s1.Gc.major_collections - s0.Gc.major_collections);
  r

(* --- batch: the [run] pipeline ------------------------------------------ *)

let eval engine ?trace p inst =
  match engine with
  | "seminaive" -> (Datalog.Seminaive.eval ?trace p inst).Datalog.Seminaive.instance
  | "stratified" ->
      (Datalog.Stratified.eval ?trace p inst).Datalog.Stratified.instance
  | e -> failwith ("unknown engine " ^ e)

(* byte for byte what [run] prints to stdout (see bin/datalog_cli.ml) *)
let render answer inst =
  let buf = Buffer.create (1 lsl 16) in
  let ppf = Format.formatter_of_buffer buf in
  (match answer with
  | None -> Format.fprintf ppf "%a@." Instance.pp inst
  | Some pred ->
      Relation.iter
        (fun t -> Format.fprintf ppf "%a@." Datalog.Pretty.pp_fact (pred, t))
        (Instance.find pred inst));
  Buffer.length buf

let span_total ctx kind =
  List.fold_left
    (fun acc (k, _, total) -> if k = kind then acc +. total else acc)
    0.
    (Observe.Trace.span_aggregates ctx)

let traced f =
  let ctx = Observe.Trace.make ~retain:[] () in
  let (), t = time (fun () -> ignore (f ctx)) in
  Observe.Trace.finish ctx;
  (ctx, t)

let batch program facts engine answer =
  let answer = if answer = "-" then None else Some answer in
  let src = read_file program and text = read_file facts in
  (* the CLI path, untraced and in CLI order: these four times are what
     the end-to-end run_s is attributed to *)
  let parsed, t_parse = layer (fun () -> Datalog.Parser.parse src) in
  let p = parsed.Datalog.Parser.program in
  let inst, t_load = layer (fun () -> Instance.parse_facts text) in
  let result, t_eval = layer (fun () -> eval engine p inst) in
  let bytes, t_print = layer (fun () -> render answer result) in
  let gc = Gc.quick_stat () in
  let nfacts = Instance.total_facts inst in
  emit "parser.parse_ms" (ms t_parse);
  emit "instance.parse_facts_ms" (ms t_load);
  emit "instance.parse_ns_per_fact" (t_load *. 1e9 /. float_of_int (max 1 nfacts));
  emit_int "intern.values" (Value.Intern.size ());
  emit_int "intern.hits" (Value.Intern.hits ());
  emit "eval_ms" (ms t_eval);
  emit "print_ms" (ms t_print);
  emit_int "print.bytes" bytes;
  emit "gc.minor_mwords" (!gc_minor_words /. 1e6);
  emit_int "gc.major_collections" !gc_major_collections;
  emit "gc.top_heap_mb"
    (float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
  (* the same evaluation again, warm (memoized instance views, grown
     heap), untraced and then traced: the traced one is split by the
     spans the engine emits; what the cold call spent outside its rounds
     is whatever the rounds do not explain *)
  let (), t_warm = time (fun () -> ignore (eval engine p inst)) in
  let ctx, t_traced = traced (fun trace -> eval engine ~trace p inst) in
  let c = Observe.Trace.counter ctx in
  let rounds = span_total ctx "round" in
  emit "fixpoint.round_ms" (ms rounds);
  emit "eval.outside_rounds_ms" (ms (t_eval -. rounds));
  emit "trace_overhead_frac" ((t_traced /. t_warm) -. 1.);
  List.iter
    (fun k -> emit_int k (c k))
    [
      "fixpoint.rounds"; "fixpoint.tuples_derived"; "fixpoint.tuples_deduped";
      "matcher.candidates"; "matcher.substs"; "db.index_builds";
      "db.index_memo_hits";
    ];
  emit "fixpoint.useful_frac"
    (ratio (c "fixpoint.delta_total") (c "fixpoint.tuples_derived"));
  emit "matcher.selectivity" (ratio (c "matcher.substs") (c "matcher.candidates"));
  (* the sharded parallel loop at -j 2 *)
  Parallel.Pool.set_jobs 2;
  let (), t_par = time (fun () -> ignore (eval engine p inst)) in
  let pctx, _ = traced (fun trace -> eval engine ~trace p inst) in
  Parallel.Pool.set_jobs 1;
  emit "par.eval_ms" (ms t_par);
  List.iter
    (fun k -> emit_int k (Observe.Trace.counter pctx k))
    [
      "par.exchange_ms"; "par.exchanged_tuples"; "par.shard_skew"; "par.tasks";
      "par.pool.fallbacks";
    ]

(* --- serve: the resident server's request path -------------------------- *)

let samples : (string, float list ref) Hashtbl.t = Hashtbl.create 16

let sample name secs =
  match Hashtbl.find_opt samples name with
  | Some l -> l := us secs :: !l
  | None -> Hashtbl.add samples name (ref [ us secs ])

let emit_median name =
  emit name
    (match Hashtbl.find_opt samples name with Some l -> median !l | None -> 0.)

(* what [Daemon.handle] does with a query answer *)
let serialize (q : Datalog.Ast.atom) rel =
  let facts =
    List.rev
      (Relation.fold
         (fun t acc ->
           Observe.Json.Str
             (Format.asprintf "%a" Datalog.Pretty.pp_fact (q.Datalog.Ast.pred, t))
           :: acc)
         rel [])
  in
  Server.Protocol.ok_response
    [
      ("count", Observe.Json.Int (Relation.cardinal rel));
      ("facts", Observe.Json.List facts);
    ]

let request line =
  match Server.Protocol.parse_request line with
  | Ok r -> r
  | Error e -> failwith ("bad schedule line: " ^ e)

let replay_layers engine lines =
  let answers = ref 0 and queries = ref 0 in
  List.iter
    (fun line ->
      let req, t = time (fun () -> request line) in
      sample "protocol.parse_request_us" t;
      match req with
      | Server.Protocol.Query { atom; via } ->
          let q, t = time (fun () -> Datalog.Parser.parse_atom atom) in
          sample "parser.parse_atom_us" t;
          if via = "demand" then (
            let _, t =
              time (fun () -> Server.Engine.query engine ~via:Server.Engine.Demand q)
            in
            sample "engine.demand_query_us" t)
          else
            let rel, t = time (fun () -> Server.Engine.query engine q) in
            sample "engine.query_us" t;
            let _, t = time (fun () -> serialize q rel) in
            sample "protocol.serialize_us" t;
            answers := !answers + Relation.cardinal rel;
            incr queries
      | Server.Protocol.Assert facts ->
          let batch, t = time (fun () -> Instance.parse_facts facts) in
          sample "instance.batch_parse_us" t;
          let _, t = time (fun () -> Server.Engine.assert_facts engine batch) in
          sample "engine.assert_us" t
      | Server.Protocol.Retract facts ->
          let batch, t = time (fun () -> Instance.parse_facts facts) in
          sample "instance.batch_parse_us" t;
          let _, t = time (fun () -> Server.Engine.retract_facts engine batch) in
          sample "engine.retract_us" t
      | Server.Protocol.Stats | Server.Protocol.Shutdown -> ())
    lines;
  ratio !answers !queries

let replay_daemon engine trace lines =
  List.iter
    (fun line ->
      let (_ : string * bool), t =
        time (fun () -> Server.Daemon.handle ~trace engine line)
      in
      match request line with
      | Server.Protocol.Query { via = "materialized"; _ } ->
          sample "daemon.handle_us" t
      | _ -> ())
    lines

let serve program facts schedule =
  let p = (Datalog.Parser.parse (read_file program)).Datalog.Parser.program in
  let edb = Instance.parse_facts (read_file facts) in
  let lines =
    String.split_on_char '\n' (read_file schedule)
    |> List.filter (fun l -> String.trim l <> "")
  in
  (* [serve] always runs its engine under an enabled trace context *)
  let trace = Observe.Trace.make ~retain:[] () in
  let engine, t_create = time (fun () -> Server.Engine.create ~trace p edb) in
  emit "engine.create_ms" (ms t_create);
  emit "serve.answer_facts" (replay_layers engine lines);
  List.iter emit_median
    [
      "protocol.parse_request_us"; "parser.parse_atom_us"; "instance.batch_parse_us";
      "engine.query_us"; "protocol.serialize_us"; "engine.assert_us";
      "engine.retract_us"; "engine.demand_query_us";
    ];
  let c = Observe.Trace.counter trace in
  emit_int "dred.overdeleted" (c "dred.overdeleted");
  emit_int "dred.rederived" (c "dred.rederived");
  emit "dred.rederive_frac" (ratio (c "dred.rederived") (c "dred.overdeleted"));
  List.iter
    (fun k -> emit_int k (c k))
    [ "demand.cache.hits"; "demand.cache.misses"; "demand.plan.compiled"; "demand.rounds" ];
  let trace = Observe.Trace.make ~retain:[] () in
  replay_daemon (Server.Engine.create ~trace p edb) trace lines;
  emit_median "daemon.handle_us"

let () =
  (match Array.to_list Sys.argv |> List.tl with
  | [ "batch"; program; facts; engine; answer ] -> batch program facts engine answer
  | [ "serve"; program; facts; schedule ] -> serve program facts schedule
  | _ ->
      prerr_endline
        "usage: layers batch PROGRAM FACTS ENGINE ANSWER | layers serve PROGRAM \
         FACTS SCHEDULE";
      exit 2);
  print_metrics ()
