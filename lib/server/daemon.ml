open Relational
open Datalog
module Trace = Observe.Trace

let k_requests = Trace.key "serve.requests"
let k_errors = Trace.key "serve.errors"

(* an op's counter and latency histogram *)
type op = { count : Trace.key; latency : Trace.key }

let op name =
  {
    count = Trace.key ("serve.op." ^ name);
    latency = Trace.key ("serve." ^ name);
  }

let op_assert = op "assert"
and op_retract = op "retract"
and op_query = op "query"
and op_stats = op "stats"
and op_shutdown = op "shutdown"

let op_of = function
  | Protocol.Assert _ -> op_assert
  | Protocol.Retract _ -> op_retract
  | Protocol.Query _ -> op_query
  | Protocol.Stats -> op_stats
  | Protocol.Shutdown -> op_shutdown

(* the wire's query paths: "demand" answers by magic sets over the live
   base facts ({!Engine.query}) *)
let via_of_string = function
  | "materialized" -> Engine.Materialized
  | "demand" -> Engine.Demand
  | v ->
      failwith
        (Printf.sprintf "unknown via %S (expected materialized or demand)" v)

let stats_response trace =
  let counters =
    List.map (fun (k, v) -> (k, Observe.Json.Int v)) (Observe.Trace.counters trace)
  in
  let histograms =
    List.map
      (fun (k, d) ->
        ( k,
          Observe.Json.Obj
            [
              ("n", Observe.Json.Int d.Observe.Trace.n);
              ("p50_ns", Observe.Json.Int d.Observe.Trace.p50);
              ("p99_ns", Observe.Json.Int d.Observe.Trace.p99);
              ("max_ns", Observe.Json.Int d.Observe.Trace.max_ns);
            ] ))
      (Observe.Trace.histograms trace)
  in
  let m = Observe.Report.memory () in
  let memory =
    (match m.peak_kb with
    | Some kb -> [ ("peak_rss_kb", Observe.Json.Int kb) ]
    | None -> [])
    @ [
        ("heap_words", Observe.Json.Int m.heap_words);
        ("top_heap_words", Observe.Json.Int m.top_heap_words);
      ]
  in
  Protocol.ok_response
    [
      ("counters", Observe.Json.Obj counters);
      ("histograms", Observe.Json.Obj histograms);
      ("memory", Observe.Json.Obj memory);
    ]

let error_message ?(trace = Trace.null) = function
  | Failure msg | Invalid_argument msg | Ast.Check_error msg
  | Aggregate.Agg_error msg ->
      msg
  | Parser.Parse_error (l, msg) ->
      Printf.sprintf "parse error at line %d: %s" l msg
  | Lexer.Lex_error (l, msg) -> Printf.sprintf "lex error at line %d: %s" l msg
  | e ->
      Trace.incr trace ("serve.exn." ^ Printexc.exn_slot_name e);
      "internal: " ^ Printexc.to_string e

let error_reply trace msg =
  Trace.incr_key trace k_errors;
  (Protocol.error_response msg, true)

(* one request -> one response line; [false] after [shutdown]. Whatever
   a request raises becomes a protocol-level error — the resident
   process must survive its clients. *)
let handle ?(trace = Trace.null) engine line =
  let tracing = Trace.enabled trace in
  Trace.incr_key trace k_requests;
  match Protocol.parse_request line with
  | exception e -> error_reply trace (error_message ~trace e)
  | Error e -> error_reply trace e
  | Ok req -> (
      let op = op_of req in
      let t0 = if tracing then Trace.now () else 0. in
      let result =
        try
          Ok
            (match req with
            | Protocol.Assert facts ->
                let added, derived, stages =
                  Engine.assert_facts engine (Instance.parse_facts facts)
                in
                ( Protocol.ok_response
                    [
                      ("added", Observe.Json.Int added);
                      ("derived", Observe.Json.Int derived);
                      ("stages", Observe.Json.Int stages);
                    ],
                  true )
            | Protocol.Retract facts ->
                let removed, overdeleted, rederived =
                  Engine.retract_facts engine (Instance.parse_facts facts)
                in
                ( Protocol.ok_response
                    [
                      ("removed", Observe.Json.Int removed);
                      ("overdeleted", Observe.Json.Int overdeleted);
                      ("rederived", Observe.Json.Int rederived);
                    ],
                  true )
            | Protocol.Query { atom; via } ->
                let q = Parser.parse_atom atom in
                let via = via_of_string via in
                let rel = Engine.query engine ~via q in
                let b = Buffer.create 64 in
                let facts =
                  List.rev
                    (Relation.fold
                       (fun t acc ->
                         Buffer.clear b;
                         Tuple.render_fact Value.Term b q.Ast.pred t;
                         Observe.Json.Str (Buffer.contents b) :: acc)
                       rel [])
                in
                ( Protocol.ok_response
                    [
                      ("count", Observe.Json.Int (Relation.cardinal rel));
                      ("facts", Observe.Json.List facts);
                    ],
                  true )
            | Protocol.Stats -> (stats_response trace, true)
            | Protocol.Shutdown ->
                (Protocol.ok_response [ ("stopping", Observe.Json.Bool true) ], false))
        with e -> Error (error_message ~trace e)
      in
      if tracing then (
        Trace.incr_key trace op.count;
        if op != op_shutdown then
          Trace.observe_s_key trace op.latency (Trace.now () -. t0));
      match result with Ok r -> r | Error msg -> error_reply trace msg)

let serve ?(trace = Observe.Trace.null) ~socket engine =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  if Sys.file_exists socket then (
    try Unix.unlink socket with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink socket with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX socket);
      Unix.listen sock 16;
      Printf.printf "listening on %s\n%!" socket;
      let stop = ref false in
      while not !stop do
        let conn, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr conn in
        let oc = Unix.out_channel_of_descr conn in
        (try
           let connected = ref true in
           while !connected do
             match input_line ic with
             | exception End_of_file -> connected := false
             | line when String.trim line = "" -> ()
             | line ->
                 let resp, keep = handle ~trace engine line in
                 output_string oc resp;
                 output_char oc '\n';
                 flush oc;
                 if not keep then (
                   connected := false;
                   stop := true)
           done
         with Sys_error _ | Unix.Unix_error _ -> ());
        close_out_noerr oc;
        close_in_noerr ic
      done)
