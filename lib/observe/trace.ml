type value = Int of int | Float of float | Str of string | Bool of bool
type fields = (string * value) list

let fint k v = (k, Int v)
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

(* the index of [v]'s highest set bit, [v > 0], by halving *)
let msb v =
  let m, v = if v lsr 32 > 0 then (32, v lsr 32) else (0, v) in
  let m, v = if v lsr 16 > 0 then (m + 16, v lsr 16) else (m, v) in
  let m, v = if v lsr 8 > 0 then (m + 8, v lsr 8) else (m, v) in
  let m, v = if v lsr 4 > 0 then (m + 4, v lsr 4) else (m, v) in
  let m, v = if v lsr 2 > 0 then (m + 2, v lsr 2) else (m, v) in
  if v lsr 1 > 0 then m + 1 else m

let bucket_of v =
  let v = if v < 0 then 0 else v in
  if v < 16 then v
  else
    let msb = msb v in
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

(* --- keys -------------------------------------------------------------- *)

(* Every counter and histogram name the process uses gets one integer
   slot, for the process's lifetime; a context keeps its values in
   arrays indexed by slot. An update by key is an array write: no
   string is hashed. Names are registered under a lock (domains trace
   concurrently), so [key] belongs where a name is first known — module
   initialisation for fixed names, plan preparation for per-rule ones —
   and never in a loop. *)
type key = int

let registry : (string, key) Hashtbl.t = Hashtbl.create 128
let names = ref [||] (* slot -> name, written under [lock] *)
let lock = Mutex.create ()
let registered = Atomic.make 0

let key name =
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt registry name with
      | Some k -> k
      | None ->
          let k = Hashtbl.length registry in
          if k = Array.length !names then (
            let a = Array.make (max 64 (2 * k)) "" in
            Array.blit !names 0 a 0 k;
            names := a);
          !names.(k) <- name;
          Hashtbl.add registry name k;
          Atomic.set registered (k + 1);
          k)

let find_key name =
  Mutex.protect lock (fun () -> Hashtbl.find_opt registry name)

(* [f name k] for every registered key, in slot order *)
let iter_keys f =
  let ns =
    Mutex.protect lock (fun () -> Array.sub !names 0 (Atomic.get registered))
  in
  Array.iteri (fun k name -> f name k) ns

(* A span kind's cell in one context: its totals, whether its closed
   spans are retained, and the key of its [span.<kind>] histogram. Found
   when a span opens, carried by the open span to its close. The total
   seconds sit in a one-cell float array, so adding to them allocates
   nothing. *)
type kind = {
  kname : string;
  hkey : key;
  retain : bool;
  mutable spans : int;
  total : float array;
}

type frame = { sp : span; cell : kind }

(* the absent histogram of a slot, never written *)
let no_hist = { h_count = 0; h_sum = 0; h_max = 0; h_counts = [||] }

type ctx = {
  enabled : bool;
  sinks : sink list;
  retain_kinds : string list;
  retain_cap : int;
  mutable next_sid : int;
  mutable stack : frame list;
  mutable vals : int array;  (* counter and gauge values, by key *)
  mutable state : Bytes.t;
      (* by key: '\000' no counter, '\001' a counter, '\002' a gauge
         (registered through a max: merged with max, not sum) *)
  mutable hists : hist array;  (* by key; [no_hist] when absent *)
  mutable kinds : kind list;
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
  let n = max 64 (Atomic.get registered) in
  {
    enabled = true;
    sinks;
    retain_kinds = retain;
    retain_cap;
    next_sid = 1;
    stack = [];
    vals = Array.make n 0;
    state = Bytes.make n '\000';
    hists = Array.make n no_hist;
    kinds = [];
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
    vals = [||];
    state = Bytes.empty;
    hists = [||];
    kinds = [];
    retained = [];
    retained_n = 0;
    journal = None;
  }

let enabled ctx = ctx.enabled

(* --- counters -------------------------------------------------------- *)

(* room for slot [k] and every slot registered so far *)
let grow ctx k =
  let n =
    max (k + 1) (max (Atomic.get registered) (2 * Array.length ctx.vals))
  in
  let old = Array.length ctx.vals in
  let vals = Array.make n 0 and hists = Array.make n no_hist in
  Array.blit ctx.vals 0 vals 0 old;
  Array.blit ctx.hists 0 hists 0 old;
  let state = Bytes.make n '\000' in
  Bytes.blit ctx.state 0 state 0 old;
  ctx.vals <- vals;
  ctx.hists <- hists;
  ctx.state <- state

let add_key ctx k n =
  if ctx.enabled then (
    if k >= Array.length ctx.vals then grow ctx k;
    Array.unsafe_set ctx.vals k (Array.unsafe_get ctx.vals k + n);
    if Bytes.unsafe_get ctx.state k = '\000' then
      Bytes.unsafe_set ctx.state k '\001')

let incr_key ctx k = add_key ctx k 1

let max_key ctx k v =
  if ctx.enabled then (
    if k >= Array.length ctx.vals then grow ctx k;
    if Bytes.unsafe_get ctx.state k = '\000' || v > Array.unsafe_get ctx.vals k
    then Array.unsafe_set ctx.vals k v;
    Bytes.unsafe_set ctx.state k '\002')

let add ctx name n = if ctx.enabled then add_key ctx (key name) n
let incr ctx name = add ctx name 1
let gauge_max ctx name v = if ctx.enabled then max_key ctx (key name) v

let present ctx k =
  k < Bytes.length ctx.state && Bytes.unsafe_get ctx.state k <> '\000'

let counter ctx name =
  match find_key name with
  | Some k when present ctx k -> ctx.vals.(k)
  | _ -> 0

let counters ctx =
  let acc = ref [] in
  if ctx.enabled then
    iter_keys (fun name k ->
        if present ctx k then acc := (name, ctx.vals.(k)) :: !acc);
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

let observe_key ctx k v =
  if ctx.enabled then (
    if k >= Array.length ctx.hists then grow ctx k;
    let h =
      match Array.unsafe_get ctx.hists k with
      | h when h != no_hist -> h
      | _ ->
          let h = hist_new () in
          ctx.hists.(k) <- h;
          h
    in
    hist_record h v)

let observe_ns ctx name v = if ctx.enabled then observe_key ctx (key name) v
let seconds_ns secs = int_of_float (secs *. 1e9)
let observe_s ctx name secs = observe_ns ctx name (seconds_ns secs)
let observe_s_key ctx k secs = observe_key ctx k (seconds_ns secs)

let hist_of ctx k =
  if k < Array.length ctx.hists && ctx.hists.(k) != no_hist then
    Some ctx.hists.(k)
  else None

let histogram ctx name =
  Option.map dist_of (Option.bind (find_key name) (hist_of ctx))

let histograms ctx =
  let acc = ref [] in
  if ctx.enabled then
    iter_keys (fun name k ->
        match hist_of ctx k with
        | Some h -> acc := (name, dist_of h) :: !acc
        | None -> ());
  List.sort (fun (a, _) (b, _) -> String.compare a b) !acc

(* Fold a worker context's counters and histograms into the
   coordinator's: additive counters sum, [gauge_max] gauges take the
   maximum (a per-round peak observed by one worker is still a peak, not
   a sum), histograms merge bucket-wise (count and sum add, max maxes).
   Only metrics travel — spans and sinks stay with the context that
   opened them. *)
let merge_counters dst src =
  if dst.enabled && src.enabled then
    for k = 0 to Array.length src.vals - 1 do
      (match Bytes.get src.state k with
      | '\000' -> ()
      | s ->
          let v = src.vals.(k) in
          if s = '\002' || (present dst k && Bytes.get dst.state k = '\002')
          then max_key dst k v
          else add_key dst k v);
      match hist_of src k with
      | None -> ()
      | Some h ->
          if k >= Array.length dst.hists then grow dst k;
          if dst.hists.(k) == no_hist then dst.hists.(k) <- hist_new ();
          hist_merge dst.hists.(k) h
    done

(* --- spans ----------------------------------------------------------- *)

(* [kind]'s cell in [ctx], made on the kind's first span: a kind is
   usually a literal, so the scan mostly compares addresses *)
let rec find_kind kind = function
  | [] -> raise Not_found
  | c :: rest ->
      if c.kname == kind || String.equal c.kname kind then c
      else find_kind kind rest

let kind_cell ctx kind =
  match find_kind kind ctx.kinds with
  | c -> c
  | exception Not_found ->
      let c =
        {
          kname = kind;
          hkey = key ("span." ^ kind);
          retain = List.mem kind ctx.retain_kinds;
          spans = 0;
          total = [| 0. |];
        }
      in
      ctx.kinds <- c :: ctx.kinds;
      c

let open_at ctx fields kind name t0 =
  let parent = match ctx.stack with f :: _ -> f.sp.sid | [] -> 0 in
  let sid = ctx.next_sid in
  ctx.next_sid <- sid + 1;
  let sp = { sid; parent; kind; name; t0 } in
  ctx.stack <- { sp; cell = kind_cell ctx kind } :: ctx.stack;
  match ctx.sinks with
  | [] -> ()
  | sinks -> List.iter (fun s -> s.on_open sp fields) sinks

let open_span ctx ?(fields = []) ~kind name =
  if ctx.enabled then open_at ctx fields kind name (now ())

(* a closed span's share of its kind's totals and the retained spans *)
let account ctx cell sp dur fields =
  cell.spans <- cell.spans + 1;
  cell.total.(0) <- cell.total.(0) +. dur;
  if cell.retain && ctx.retained_n < ctx.retain_cap then (
    ctx.retained <- (sp, dur, fields) :: ctx.retained;
    ctx.retained_n <- ctx.retained_n + 1)

let close_at ctx fields t =
  match ctx.stack with
  | [] -> () (* unbalanced close: ignore rather than fail the engine *)
  | { sp; cell } :: rest ->
      ctx.stack <- rest;
      let dur = t -. sp.t0 in
      account ctx cell sp dur fields;
      observe_s_key ctx cell.hkey dur;
      match ctx.sinks with
      | [] -> ()
      | sinks -> List.iter (fun s -> s.on_close sp dur fields) sinks

let close_span ctx ?(fields = []) () =
  if ctx.enabled then close_at ctx fields (now ())

(* one clock reading ends a span and starts the next *)
let next_span ctx ?(fields = []) ~kind name =
  if ctx.enabled then (
    let t = now () in
    close_at ctx fields t;
    open_at ctx [] kind name t)

let with_span ctx ?fields ~kind name f =
  if not ctx.enabled then f ()
  else (
    open_span ctx ?fields ~kind name;
    match f () with
    | r ->
        close_span ctx ();
        r
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        close_span ctx ();
        Printexc.raise_with_backtrace e bt)

let event ctx ?(fields = []) name =
  if ctx.enabled then (
    let sid = match ctx.stack with f :: _ -> f.sp.sid | [] -> 0 in
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
      let top = match dst.stack with f :: _ -> f.sp.sid | [] -> 0 in
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
              account dst (kind_cell dst sp.kind) sp dur f;
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
  List.filter_map
    (fun c ->
      if c.spans > 0 then Some (c.kname, c.spans, c.total.(0)) else None)
    ctx.kinds
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let retained_spans ctx = List.rev ctx.retained
