(** The resident process: a single-threaded accept loop on a Unix-domain
    socket, dispatching line-JSON requests ({!Protocol}) to an
    {!Engine}. Requests are served in arrival order — updates are
    serialized by construction, so the engine needs no locking.

    Observability ([trace], when enabled): counters [serve.requests],
    [serve.errors] and [serve.op.<assert|retract|query|stats|shutdown>],
    plus one latency histogram per command
    ([serve.<assert|retract|query|stats>], nanoseconds — p50/p99 are
    exposed through the [stats] op and the CLI [--stats] summary), on
    top of whatever the engine itself records ([fixpoint.*], [dred.*],
    [db.*], [magic.*]). The [stats] op also reports the process's own
    memory ({!Observe.Report.memory}).

    Failures of a single request — unparsable JSON, syntax errors in
    facts or atoms, arity mismatches, [Ast.Check_error],
    [Invalid_argument] (e.g. {!Relational.Schema} lookups) — are mapped
    to [{"ok":false,"error":...}] responses; the process stays up. *)

(** [serve ?trace ~socket engine] binds [socket] (unlinking any stale
    file first), prints one ["listening on <socket>"] line to stdout,
    and serves until a [shutdown] request arrives. The socket file is
    removed on exit. *)
val serve : ?trace:Observe.Trace.ctx -> socket:string -> Engine.t -> unit

(** [handle ?trace engine line] processes one request line and returns
    [(response_line, keep_going)] — exposed for tests and in-process
    drivers; [serve] is this in a loop. *)
val handle : ?trace:Observe.Trace.ctx -> Engine.t -> string -> string * bool
