(** Engine-wide tracing and metrics.

    A {!ctx} is threaded through the evaluation engines; when disabled
    (the shared {!null} context) every instrumentation call reduces to a
    single branch on a boolean, so the hot paths pay a negligible cost.
    When enabled, the context maintains:

    - {b hierarchical spans} ([run > stratum > round > rule], plus
      engine-specific kinds such as [phase] for the well-founded
      alternating fixpoint), timed with a monotonic {e wall} clock
      (see {!now});
    - {b counters and max-gauges} for hot-path internals (delta sizes,
      tuples derived vs. deduped, index builds vs. memo hits, per-rule
      firings, join selectivity);
    - {b pluggable sinks} receiving span open/close, events, and the
      final counter dump — see {!memory_sink} here and
      [Report.jsonl_sink] for the machine-readable trace writer.

    The instrumentation layer never raises and never changes engine
    results; an unbalanced [close_span] is ignored and [finish] closes
    any spans abandoned by an exception. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type fields = (string * value) list

(** Field constructors: [fint "delta" 12] etc. *)

val fint : string -> int -> string * value
val fstr : string -> string -> string * value

type span = {
  sid : int;  (** unique within a context, 1-based *)
  parent : int;  (** parent span id, 0 at the root *)
  kind : string;  (** hierarchy level: run, stratum, round, phase, ... *)
  name : string;
  t0 : float;  (** open time, seconds on the monotonic wall clock of {!now} *)
}

(** The trace clock: monotonic wall-clock seconds since process start
    ([clock_gettime(CLOCK_MONOTONIC)] against a fixed epoch). Unlike
    [Sys.time] — process-CPU time, which ignores I/O waits and sums the
    work of concurrent domains — this measures elapsed real time, so
    span durations stay meaningful under parallel evaluation. *)
val now : unit -> float

(** A snapshot of a latency histogram (see {!observe_ns}): sample count,
    percentile estimates, exact maximum and exact sum, all in
    nanoseconds. Percentiles are bucket lower bounds, so they
    underestimate by at most 12.5% (one log-bucket's width) and are
    monotone in the quantile. An empty histogram snapshots to all
    zeros. *)
type dist = {
  n : int;
  p50 : int;
  p90 : int;
  p99 : int;
  max_ns : int;
  sum_ns : int;
}

(** A sink receives the span/event stream. Close callbacks also receive
    the span duration (seconds) and the fields recorded at close time;
    [on_finish] receives the final sorted counter list and histogram
    snapshots. *)
type sink = {
  on_open : span -> fields -> unit;
  on_close : span -> float -> fields -> unit;
  on_event : int -> string -> fields -> unit;
  on_finish : (string * int) list -> (string * dist) list -> unit;
}

type ctx

(** The disabled context: all operations are no-ops costing one branch.
    Engines default their [?trace] argument to this. *)
val null : ctx

(** The span kinds a context retains by default:
    [["run"; "stratum"; "phase"; "adom"; "load"; "print"]]. *)
val default_retain : string list

(** [make ()] is an enabled context. [retain] lists the span kinds whose
    closed spans are kept (with close fields) for the human-readable
    summary, at most 1024 spans; defaults to {!default_retain}. *)
val make : ?sinks:sink list -> ?retain:string list -> unit -> ctx

val enabled : ctx -> bool

(** {1 Counters}

    [add ctx name n] accumulates into a named counter; [gauge_max]
    keeps the maximum instead. Counters and gauges share one namespace
    and are both reported by {!counters}. *)

val add : ctx -> string -> int -> unit
val incr : ctx -> string -> unit
val gauge_max : ctx -> string -> int -> unit

(** {2 By key}

    The same counters, gauges and histograms addressed by a {!key}: a
    name resolved once to an integer slot, so an update is an array
    write and hashes no string. A name has one key for the life of the
    process, and the by-name calls above resolve it on every call. Take
    keys where a name is first known (module initialisation, plan
    preparation), not in a loop: [key] takes a lock. *)

type key

val key : string -> key
val add_key : ctx -> key -> int -> unit
val incr_key : ctx -> key -> unit

(** {!gauge_max} by key. *)
val max_key : ctx -> key -> int -> unit

(** {!observe_s} by key. *)
val observe_s_key : ctx -> key -> float -> unit

(** [counter ctx name] is the current value ([0] when absent). *)
val counter : ctx -> string -> int

(** All counters, sorted by name. *)
val counters : ctx -> (string * int) list

(** {1 Histograms}

    Log-bucketed latency histograms: values below 16 are exact, larger
    values land in one of 8 linear sub-buckets per power-of-two octave
    (≤ 12.5% relative error). Bucket boundaries depend only on the
    value, so histograms recorded independently (e.g. one per parallel
    domain) merge losslessly by summing bucket counts. *)

(** [observe_ns ctx name v] records one sample (nanoseconds; negative
    values clamp to 0) into the named histogram, creating it on first
    use. *)
val observe_ns : ctx -> string -> int -> unit

(** [observe_s ctx name secs] is {!observe_ns} after converting seconds
    to nanoseconds — the natural companion to {!now} deltas. *)
val observe_s : ctx -> string -> float -> unit

(** [histogram ctx name] snapshots one histogram ([None] when absent).
    Every closed span also feeds a histogram named [span.<kind>]
    automatically, so e.g. [histogram ctx "span.round"] is the round
    latency distribution. *)
val histogram : ctx -> string -> dist option

(** All histogram snapshots, sorted by name. *)
val histograms : ctx -> (string * dist) list

(** [merge_counters dst src] folds [src]'s counters and histograms into
    [dst]: additive counters sum, gauges recorded with {!gauge_max} (in
    either context) merge by maximum, histograms merge bucket-wise (so
    the merged count is the sum of per-context counts and percentiles
    reflect the pooled samples). Spans, events and sinks are not
    transferred. The parallel engines give each worker a private context
    and merge at the barrier, so workers never contend on one table.
    No-op if either context is disabled. *)
val merge_counters : ctx -> ctx -> unit

(** {1 Spans and events} *)

(** [open_span ctx ~kind name] pushes a child of the innermost open
    span. Pair with {!close_span}, whose [fields] carry the
    measurements known only at the end (e.g. a round's delta size). *)
val open_span : ctx -> ?fields:fields -> kind:string -> string -> unit

val close_span : ctx -> ?fields:fields -> unit -> unit

(** [next_span ctx ~kind name] is [close_span ctx ?fields ()] then
    [open_span ctx ~kind name] on one reading of the clock: the new
    span starts when the closed one ends. For loops whose steps are
    spans back to back, such as a fixpoint's rounds; a clock reading
    is most of what a span costs. *)
val next_span : ctx -> ?fields:fields -> kind:string -> string -> unit

(** [with_span ctx ~kind name f] wraps [f] in a span, closing it even if
    [f] raises. *)
val with_span : ctx -> ?fields:fields -> kind:string -> string -> (unit -> 'a) -> 'a

(** [event ctx name] records a point event inside the innermost open
    span. *)
val event : ctx -> ?fields:fields -> string -> unit

(** [fork ctx] is a context for one task of a parallel job run under
    [ctx]: enabled when [ctx] is, with [ctx]'s retained kinds, and no
    sinks — it keeps its spans and events, in order, for {!join}. The
    fork of {!null} is {!null}. *)
val fork : ctx -> ctx

(** [join dst src] folds the fork [src] back into [dst] once its task
    has finished: its counters and histograms as {!merge_counters} does,
    and its spans and events, in their order, with their own open times,
    durations and fields — renumbered, its outermost spans as children
    of [dst]'s innermost open span — into [dst]'s sinks, span totals and
    retained spans. Forks joined one after another appear one after
    another, even when their tasks overlapped in time. No-op unless
    [src] is a fork and [dst] is enabled. *)
val join : ctx -> ctx -> unit

(** [finish ctx] closes any spans left open (marked [aborted]) and
    delivers the final counter dump to every sink. Call once, after the
    traced computation. *)
val finish : ctx -> unit

(** {1 Introspection} *)

(** Per-kind aggregates over closed spans: [(kind, count, total_seconds)],
    sorted by kind. *)
val span_aggregates : ctx -> (string * int * float) list

(** Retained closed spans (see [retain] in {!make}) in close order:
    [(span, duration_seconds, close_fields)]. *)
val retained_spans : ctx -> (span * float * fields) list

(** {1 Stock sinks} *)

type recorded =
  | Opened of span * fields
  | Closed of span * float * fields
  | Evented of int * string * fields
  | Finished of (string * int) list * (string * dist) list

(** [memory_sink ()] is a sink plus an accessor returning everything it
    received, in order — the test harness's view of a run. *)
val memory_sink : unit -> sink * (unit -> recorded list)
