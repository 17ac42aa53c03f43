(** Trace sinks and reports: the JSON-lines trace writer, its schema
    validator, and the human-readable [--stats] summary.

    {1 JSONL trace schema}

    One JSON object per line. Every line has a ["type"] key:

    - [span_open]: ["id"], ["parent"] (0 at the root), ["kind"],
      ["name"], ["t_ms"] (open time, monotonic wall-clock milliseconds
      since process start — see {!Trace.now}), ["fields"]
    - [span_close]: ["id"], ["kind"], ["name"], ["dur_ms"] (elapsed
      wall-clock ms), ["fields"]
    - [event]: ["span"] (enclosing span id), ["name"], ["fields"]
    - [summary]: ["counters"] (an object mapping counter name to value)
      and ["histograms"] (an object mapping histogram name to
      [{"n", "p50_ns", "p90_ns", "p99_ns", "max_ns", "sum_ns"}]);
      written once by [Trace.finish]

    ["fields"] is always present, possibly [{}]. *)

(** [jsonl_sink ~write] emits one schema line per callback via [write]
    (which receives the line without a trailing newline). *)
val jsonl_sink : write:(string -> unit) -> Trace.sink

(** [validate_line line] checks one trace line against the schema:
    valid JSON, a known ["type"], and that type's required keys.
    Returns the line type on success. *)
val validate_line : string -> (string, string) result

(** The process's own memory, as it reports it. [peak_kb] is its peak
    resident set ([VmHWM] in [/proc/self/status]), [None] where that
    file cannot be read; [heap_words] and [top_heap_words] are the OCaml
    heap's current and largest size ([Gc.quick_stat]). *)
type memory = { peak_kb : int option; heap_words : int; top_heap_words : int }

val memory : unit -> memory

(** [pp_summary ppf ctx] prints the human-readable run report: retained
    spans (runs, strata, phases) with their close fields, per-kind span
    totals, all counters and latency histograms (both sorted by name, so
    the output is deterministic up to the times themselves), the
    derived index hit/build and join selectivity ratios, and a last
    [memory:] line ({!memory}: the peak in MiB, as [ru_maxrss] readers
    show it, the heap in MB of 10^6 bytes). *)
val pp_summary : Format.formatter -> Trace.ctx -> unit
