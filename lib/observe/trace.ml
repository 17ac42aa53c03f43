type value = Int of int | Float of float | Str of string | Bool of bool
type fields = (string * value) list

let fint k v = (k, Int v)
let ffloat k v = (k, Float v)
let fstr k v = (k, Str v)
let fbool k v = (k, Bool v)

type span = {
  sid : int;
  parent : int;
  kind : string;
  name : string;
  t0 : float;
}

(* --- histograms ------------------------------------------------------ *)

(* Log-bucketed latency histograms over non-negative integers
   (nanoseconds by convention). Values below 16 get an exact bucket
   each; above, every power-of-two octave is split into 8 linear
   sub-buckets, bounding the relative quantization error at 12.5%.
   Bucket indexing is value-determined (no per-histogram state), so two
   histograms recorded by different domains merge by summing bucket
   counts — the property the parallel barrier merge relies on. *)

let hist_buckets = 16 + (59 * 8) (* msb of a 63-bit int reaches 62 *)

let bucket_of v =
  let v = if v < 0 then 0 else v in
  if v < 16 then v
  else
    let msb =
      let rec f i = if v lsr i <= 1 then i else f (i + 1) in
      f 4
    in
    16 + ((msb - 4) * 8) + ((v lsr (msb - 3)) land 7)

(* Inclusive lower bound of bucket [i] — the representative value
   percentile queries report. *)
let bucket_lo i =
  if i < 16 then i
  else
    let oct = (i - 16) / 8 and pos = (i - 16) mod 8 in
    (8 + pos) lsl (oct + 1)

type hist = {
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_max : int;
  h_counts : int array;
}

type dist = {
  n : int;
  p50 : int;
  p90 : int;
  p99 : int;
  max_ns : int;
  sum_ns : int;
}

let hist_new () =
  { h_count = 0; h_sum = 0; h_max = 0; h_counts = Array.make hist_buckets 0 }

let hist_record h v =
  let v = if v < 0 then 0 else v in
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if v > h.h_max then h.h_max <- v;
  let i = bucket_of v in
  h.h_counts.(i) <- h.h_counts.(i) + 1

let hist_merge dst src =
  dst.h_count <- dst.h_count + src.h_count;
  dst.h_sum <- dst.h_sum + src.h_sum;
  if src.h_max > dst.h_max then dst.h_max <- src.h_max;
  Array.iteri
    (fun i c -> if c > 0 then dst.h_counts.(i) <- dst.h_counts.(i) + c)
    src.h_counts

let dist_of h =
  if h.h_count = 0 then
    { n = 0; p50 = 0; p90 = 0; p99 = 0; max_ns = 0; sum_ns = 0 }
  else
    let pct q =
      let rank =
        let r = int_of_float (ceil (q *. float_of_int h.h_count)) in
        if r < 1 then 1 else r
      in
      let rec go i cum =
        if i >= hist_buckets then h.h_max
        else
          let cum = cum + h.h_counts.(i) in
          if cum >= rank then min (bucket_lo i) h.h_max else go (i + 1) cum
      in
      go 0 0
    in
    {
      n = h.h_count;
      p50 = pct 0.50;
      p90 = pct 0.90;
      p99 = pct 0.99;
      max_ns = h.h_max;
      sum_ns = h.h_sum;
    }

type sink = {
  on_open : span -> fields -> unit;
  on_close : span -> float -> fields -> unit;
  on_event : int -> string -> fields -> unit;
  on_finish : (string * int) list -> (string * dist) list -> unit;
}

type recorded =
  | Opened of span * fields
  | Closed of span * float * fields
  | Evented of int * string * fields
  | Finished of (string * int) list * (string * dist) list

(* the stock sink of tests, and the journal of a [fork] *)
let memory_sink () =
  let log = ref [] in
  let sink =
    {
      on_open = (fun sp f -> log := Opened (sp, f) :: !log);
      on_close = (fun sp dur f -> log := Closed (sp, dur, f) :: !log);
      on_event = (fun sid name f -> log := Evented (sid, name, f) :: !log);
      on_finish = (fun cs hs -> log := Finished (cs, hs) :: !log);
    }
  in
  (sink, fun () -> List.rev !log)

type agg = { mutable spans : int; mutable total : float }

type ctx = {
  enabled : bool;
  sinks : sink list;
  retain_kinds : string list;
  retain_cap : int;
  mutable next_sid : int;
  mutable stack : span list;
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, unit) Hashtbl.t;
      (* names registered through [gauge_max]: merged with max, not sum *)
  hists : (string, hist) Hashtbl.t;
  span_aggs : (string, agg) Hashtbl.t;
  mutable retained : (span * float * fields) list;
  mutable retained_n : int;
  journal : (unit -> recorded list) option;
      (* a [fork]'s span stream, for [join] *)
}

(* Monotonic *wall* clock (clock_gettime(CLOCK_MONOTONIC) via bechamel's
   stub). [Sys.time] — the previous source — is process-CPU time: it
   freezes across I/O waits and, under parallel domains, sums the work
   of every worker, inflating wall durations by up to the domain count.
   Times are reported in seconds relative to a process-start epoch so
   downstream millisecond fields stay small. *)
let epoch = Monotonic_clock.now ()

let now () =
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) epoch) /. 1e9

let default_retain = [ "run"; "stratum"; "phase"; "adom"; "load"; "print" ]

let make ?(sinks = []) ?(retain = default_retain) ?(retain_cap = 1024) () =
  {
    enabled = true;
    sinks;
    retain_kinds = retain;
    retain_cap;
    next_sid = 1;
    stack = [];
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 8;
    hists = Hashtbl.create 16;
    span_aggs = Hashtbl.create 16;
    retained = [];
    retained_n = 0;
    journal = None;
  }

let null =
  {
    enabled = false;
    sinks = [];
    retain_kinds = [];
    retain_cap = 0;
    next_sid = 1;
    stack = [];
    counters = Hashtbl.create 1;
    gauges = Hashtbl.create 1;
    hists = Hashtbl.create 1;
    span_aggs = Hashtbl.create 1;
    retained = [];
    retained_n = 0;
    journal = None;
  }

let enabled ctx = ctx.enabled

(* --- counters -------------------------------------------------------- *)

let add ctx name n =
  if ctx.enabled then
    match Hashtbl.find_opt ctx.counters name with
    | Some r -> r := !r + n
    | None -> Hashtbl.add ctx.counters name (ref n)

let incr ctx name = add ctx name 1

let gauge_max ctx name v =
  if ctx.enabled then (
    if not (Hashtbl.mem ctx.gauges name) then Hashtbl.add ctx.gauges name ();
    match Hashtbl.find_opt ctx.counters name with
    | Some r -> if v > !r then r := v
    | None -> Hashtbl.add ctx.counters name (ref v))

let counter ctx name =
  match Hashtbl.find_opt ctx.counters name with Some r -> !r | None -> 0

let counters ctx =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) ctx.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let observe_ns ctx name v =
  if ctx.enabled then
    let h =
      match Hashtbl.find_opt ctx.hists name with
      | Some h -> h
      | None ->
          let h = hist_new () in
          Hashtbl.add ctx.hists name h;
          h
    in
    hist_record h v

let observe_s ctx name secs = observe_ns ctx name (int_of_float (secs *. 1e9))

let histogram ctx name = Option.map dist_of (Hashtbl.find_opt ctx.hists name)

let histograms ctx =
  Hashtbl.fold (fun k h acc -> (k, dist_of h) :: acc) ctx.hists []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Fold a worker context's counters and histograms into the
   coordinator's: additive counters sum, [gauge_max] gauges take the
   maximum (a per-round peak observed by one worker is still a peak, not
   a sum), histograms merge bucket-wise (count and sum add, max maxes).
   Only metrics travel — spans and sinks stay with the context that
   opened them. *)
let merge_counters dst src =
  if dst.enabled && src.enabled then (
    List.iter
      (fun (name, v) ->
        if Hashtbl.mem src.gauges name || Hashtbl.mem dst.gauges name then
          gauge_max dst name v
        else add dst name v)
      (counters src);
    Hashtbl.iter
      (fun name h ->
        match Hashtbl.find_opt dst.hists name with
        | Some dh -> hist_merge dh h
        | None ->
            let dh = hist_new () in
            hist_merge dh h;
            Hashtbl.add dst.hists name dh)
      src.hists)

(* --- spans ----------------------------------------------------------- *)

let open_span ctx ?(fields = []) ~kind name =
  if ctx.enabled then (
    let parent = match ctx.stack with s :: _ -> s.sid | [] -> 0 in
    let sid = ctx.next_sid in
    ctx.next_sid <- sid + 1;
    let sp = { sid; parent; kind; name; t0 = now () } in
    ctx.stack <- sp :: ctx.stack;
    List.iter (fun s -> s.on_open sp fields) ctx.sinks)

(* a closed span's share of the span totals and the retained spans *)
let account ctx sp dur fields =
  (match Hashtbl.find_opt ctx.span_aggs sp.kind with
  | Some a ->
      a.spans <- a.spans + 1;
      a.total <- a.total +. dur
  | None -> Hashtbl.add ctx.span_aggs sp.kind { spans = 1; total = dur });
  if List.mem sp.kind ctx.retain_kinds && ctx.retained_n < ctx.retain_cap then (
    ctx.retained <- (sp, dur, fields) :: ctx.retained;
    ctx.retained_n <- ctx.retained_n + 1)

let close_span ctx ?(fields = []) () =
  if ctx.enabled then
    match ctx.stack with
    | [] -> () (* unbalanced close: ignore rather than fail the engine *)
    | sp :: rest ->
        ctx.stack <- rest;
        let dur = now () -. sp.t0 in
        account ctx sp dur fields;
        observe_s ctx ("span." ^ sp.kind) dur;
        List.iter (fun s -> s.on_close sp dur fields) ctx.sinks

let with_span ctx ?fields ~kind name f =
  if not ctx.enabled then f ()
  else (
    open_span ctx ?fields ~kind name;
    Fun.protect ~finally:(fun () -> close_span ctx ()) f)

let event ctx ?(fields = []) name =
  if ctx.enabled then (
    let sid = match ctx.stack with s :: _ -> s.sid | [] -> 0 in
    List.iter (fun s -> s.on_event sid name fields) ctx.sinks)

(* A fork journals its span stream instead of sending it anywhere; a
   [join] replays it into the parent. *)
let fork ctx =
  if not ctx.enabled then null
  else
    let sink, journal = memory_sink () in
    {
      (make ~sinks:[ sink ] ~retain:ctx.retain_kinds
         ~retain_cap:ctx.retain_cap ())
      with
      journal = Some journal;
    }

(* The fork's spans get fresh ids in [dst]; its roots and its events
   outside any span hang under [dst]'s innermost open span. Their
   histogram samples travel with the counters. *)
let join dst src =
  match src.journal with
  | Some journal when dst.enabled ->
      let top = match dst.stack with s :: _ -> s.sid | [] -> 0 in
      let ids = Hashtbl.create 16 in
      let id sid = if sid = 0 then top else Hashtbl.find ids sid in
      let move sp = { sp with sid = id sp.sid; parent = id sp.parent } in
      List.iter
        (function
          | Opened (sp, f) ->
              Hashtbl.add ids sp.sid dst.next_sid;
              dst.next_sid <- dst.next_sid + 1;
              let sp = move sp in
              List.iter (fun s -> s.on_open sp f) dst.sinks
          | Closed (sp, dur, f) ->
              let sp = move sp in
              account dst sp dur f;
              List.iter (fun s -> s.on_close sp dur f) dst.sinks
          | Evented (sid, name, f) ->
              List.iter (fun s -> s.on_event (id sid) name f) dst.sinks
          | Finished _ -> ())
        (journal ());
      merge_counters dst src
  | _ -> ()

let finish ctx =
  if ctx.enabled then (
    (* close anything an exception left open, marking it aborted *)
    while ctx.stack <> [] do
      close_span ctx ~fields:[ fbool "aborted" true ] ()
    done;
    let cs = counters ctx and hs = histograms ctx in
    List.iter (fun s -> s.on_finish cs hs) ctx.sinks)

(* --- introspection (summary printing, tests) ------------------------- *)

let span_aggregates ctx =
  Hashtbl.fold (fun k a acc -> (k, a.spans, a.total) :: acc) ctx.span_aggs []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let retained_spans ctx = List.rev ctx.retained
