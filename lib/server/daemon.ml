open Relational
open Datalog

let op_name = function
  | Protocol.Assert _ -> "assert"
  | Protocol.Retract _ -> "retract"
  | Protocol.Query _ -> "query"
  | Protocol.Stats -> "stats"
  | Protocol.Shutdown -> "shutdown"

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

(* one request -> one response line; [false] after [shutdown]. Anything
   a bad request can raise becomes a protocol-level error — the resident
   process must survive its clients. *)
let handle ?(trace = Observe.Trace.null) engine line =
  let tracing = Observe.Trace.enabled trace in
  if tracing then Observe.Trace.incr trace "serve.requests";
  match Protocol.parse_request line with
  | Error e ->
      if tracing then Observe.Trace.incr trace "serve.errors";
      (Protocol.error_response e, true)
  | Ok req -> (
      let op = op_name req in
      let t0 = if tracing then Observe.Trace.now () else 0. in
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
        with
        | Failure msg -> Error msg
        | Invalid_argument msg -> Error msg
        | Ast.Check_error msg -> Error msg
        | Aggregate.Agg_error msg -> Error msg
        | Parser.Parse_error (l, msg) ->
            Error (Printf.sprintf "parse error at line %d: %s" l msg)
        | Lexer.Lex_error (l, msg) ->
            Error (Printf.sprintf "lex error at line %d: %s" l msg)
      in
      if tracing then (
        Observe.Trace.incr trace ("serve.op." ^ op);
        if op <> "shutdown" then
          Observe.Trace.observe_s trace ("serve." ^ op)
            (Observe.Trace.now () -. t0));
      match result with
      | Ok r -> r
      | Error msg ->
          if tracing then Observe.Trace.incr trace "serve.errors";
          (Protocol.error_response msg, true))

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
