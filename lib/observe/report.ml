let json_of_value = function
  | Trace.Int n -> Json.Int n
  | Trace.Float f -> Json.Float f
  | Trace.Str s -> Json.Str s
  | Trace.Bool b -> Json.Bool b

let json_of_fields fields =
  Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) fields)

let ms t = t *. 1000.
let ns_ms n = float_of_int n /. 1e6

let json_of_dist d =
  Json.Obj
    [
      ("n", Json.Int d.Trace.n);
      ("p50_ns", Json.Int d.Trace.p50);
      ("p90_ns", Json.Int d.Trace.p90);
      ("p99_ns", Json.Int d.Trace.p99);
      ("max_ns", Json.Int d.Trace.max_ns);
      ("sum_ns", Json.Int d.Trace.sum_ns);
    ]

let jsonl_sink ~write =
  let line kvs = write (Json.to_string (Json.Obj kvs)) in
  {
    Trace.on_open =
      (fun sp fields ->
        line
          [
            ("type", Json.Str "span_open");
            ("id", Json.Int sp.Trace.sid);
            ("parent", Json.Int sp.Trace.parent);
            ("kind", Json.Str sp.Trace.kind);
            ("name", Json.Str sp.Trace.name);
            ("t_ms", Json.Float (ms sp.Trace.t0));
            ("fields", json_of_fields fields);
          ]);
    on_close =
      (fun sp dur fields ->
        line
          [
            ("type", Json.Str "span_close");
            ("id", Json.Int sp.Trace.sid);
            ("kind", Json.Str sp.Trace.kind);
            ("name", Json.Str sp.Trace.name);
            ("dur_ms", Json.Float (ms dur));
            ("fields", json_of_fields fields);
          ]);
    on_event =
      (fun sid name fields ->
        line
          [
            ("type", Json.Str "event");
            ("span", Json.Int sid);
            ("name", Json.Str name);
            ("fields", json_of_fields fields);
          ]);
    on_finish =
      (fun cs hs ->
        line
          [
            ("type", Json.Str "summary");
            ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) cs));
            ( "histograms",
              Json.Obj (List.map (fun (k, d) -> (k, json_of_dist d)) hs) );
          ]);
  }

(* --- JSONL validation (trace_check, golden tests) -------------------- *)

let span_keys = [ "id"; "kind"; "name" ]

let required_keys = function
  | "span_open" -> "parent" :: "t_ms" :: "fields" :: span_keys
  | "span_close" -> "dur_ms" :: "fields" :: span_keys
  | "event" -> [ "span"; "name"; "fields" ]
  | "summary" -> [ "counters" ]
  | _ -> []

let validate_line line =
  match Json.parse line with
  | Error msg -> Error (Printf.sprintf "invalid JSON: %s" msg)
  | Ok json -> (
      match Json.member "type" json with
      | Some (Json.Str ty) -> (
          match required_keys ty with
          | [] -> Error (Printf.sprintf "unknown line type %S" ty)
          | keys -> (
              match
                List.filter (fun k -> Json.member k json = None) keys
              with
              | [] -> Ok ty
              | missing ->
                  Error
                    (Printf.sprintf "%s line missing keys: %s" ty
                       (String.concat ", " missing))))
      | _ -> Error "line has no \"type\" string")

(* --- human-readable summary ------------------------------------------ *)

let pp_fields ppf fields =
  List.iter
    (fun (k, v) ->
      let s =
        match v with
        | Trace.Int n -> string_of_int n
        | Trace.Float f -> Printf.sprintf "%.2f" f
        | Trace.Str s -> s
        | Trace.Bool b -> string_of_bool b
      in
      Format.fprintf ppf " %s=%s" k s)
    fields

let pp_summary ppf ctx =
  Format.fprintf ppf "== run report ==@.";
  let retained = Trace.retained_spans ctx in
  if retained <> [] then (
    Format.fprintf ppf "spans:@.";
    List.iter
      (fun (sp, dur, fields) ->
        Format.fprintf ppf "  %-8s %-24s %10.2f ms%a@." sp.Trace.kind
          sp.Trace.name (ms dur) pp_fields fields)
      retained);
  let aggs = Trace.span_aggregates ctx in
  let hot =
    List.filter (fun (k, _, _) -> not (List.mem k Trace.default_retain)) aggs
  in
  if hot <> [] then (
    Format.fprintf ppf "span totals:@.";
    List.iter
      (fun (kind, n, total) ->
        Format.fprintf ppf "  %-24s %8d spans %12.2f ms@." kind n (ms total))
      hot);
  let cs = Trace.counters ctx in
  if cs <> [] then (
    Format.fprintf ppf "counters:@.";
    List.iter (fun (k, v) -> Format.fprintf ppf "  %-40s %12d@." k v) cs);
  let hs = Trace.histograms ctx in
  if hs <> [] then (
    Format.fprintf ppf "histograms:@.";
    List.iter
      (fun (k, d) ->
        Format.fprintf ppf
          "  %-28s %8d samples  p50=%.2f ms p90=%.2f ms p99=%.2f ms max=%.2f \
           ms@."
          k d.Trace.n (ns_ms d.Trace.p50) (ns_ms d.Trace.p90)
          (ns_ms d.Trace.p99) (ns_ms d.Trace.max_ns))
      hs);
  (* derived ratios the acceptance criteria care about *)
  let c name = Trace.counter ctx name in
  let builds = c "db.index_builds" and hits = c "db.index_memo_hits" in
  if builds + hits > 0 then
    Format.fprintf ppf "index hit/build ratio: %d/%d (%.1f%% hits)@." hits
      builds
      (100. *. float_of_int hits /. float_of_int (builds + hits));
  let cand = c "matcher.candidates" and substs = c "matcher.substs" in
  if cand > 0 then
    Format.fprintf ppf "join selectivity: %d/%d (%.1f%% of scanned tuples)@."
      substs cand
      (100. *. float_of_int substs /. float_of_int cand)
