(* datalog-trace-check: validate a JSON-lines trace produced by
   datalog-unchained --trace against the schema in Observe.Report.
   Reads the named file, or stdin when the argument is "-". Besides
   checking each line on its own, it checks the trace as a whole: every
   span_close closes the innermost open span, no span is left open, and
   a summary line is present — so a trace cut short by a crash is
   rejected. Prints a deterministic per-type tally on success; on the
   first invalid line, reports its line number and exits 2. *)

let () =
  let path =
    match Sys.argv with
    | [| _; p |] -> p
    | _ ->
        prerr_endline "usage: datalog-trace-check TRACE.jsonl|-";
        exit 2
  in
  let ic =
    if String.equal path "-" then stdin
    else
      try open_in path
      with Sys_error msg ->
        Printf.eprintf "cannot open trace file: %s\n" msg;
        exit 2
  in
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        prerr_endline msg;
        exit 2)
      fmt
  in
  let counts = Hashtbl.create 8 in
  let total = ref 0 in
  let lineno = ref 0 in
  (* ids of the open spans, innermost first *)
  let open_spans = ref [] in
  let span_id line =
    match Result.map (Observe.Json.member "id") (Observe.Json.parse line) with
    | Ok (Some (Observe.Json.Int id)) -> id
    | _ -> fail "%s:%d: span id is not an integer" path !lineno
  in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       if String.trim line <> "" then (
         match Observe.Report.validate_line line with
         | Ok ty ->
             incr total;
             Hashtbl.replace counts ty
               (1 + (try Hashtbl.find counts ty with Not_found -> 0));
             (match ty with
             | "span_open" -> open_spans := span_id line :: !open_spans
             | "span_close" -> (
                 let id = span_id line in
                 match !open_spans with
                 | top :: rest when top = id -> open_spans := rest
                 | top :: _ ->
                     fail "%s:%d: span_close %d while span %d is innermost"
                       path !lineno id top
                 | [] ->
                     fail "%s:%d: span_close %d with no span open" path
                       !lineno id)
             | _ -> ())
         | Error msg -> fail "%s:%d: %s" path !lineno msg)
     done
   with End_of_file -> close_in_noerr ic);
  (match !open_spans with
  | [] -> ()
  | ids ->
      fail "%s: span(s) never closed: %s" path
        (String.concat ", " (List.rev_map string_of_int ids)));
  if not (Hashtbl.mem counts "summary") then fail "%s: no summary line" path;
  let tally ty =
    Printf.sprintf "%s %d"
      ty
      (try Hashtbl.find counts ty with Not_found -> 0)
  in
  Printf.printf "ok: %d lines (%s)\n" !total
    (String.concat ", "
       (List.map tally [ "span_open"; "span_close"; "event"; "summary" ]))
