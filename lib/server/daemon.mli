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

    Every exception a request raises is mapped to an
    [{"ok":false,"error":...}] response ({!error_message}), and counted
    in [serve.errors]; the process stays up. *)

(** [serve ?trace ~socket engine] binds [socket] (unlinking any stale
    file first), prints one ["listening on <socket>"] line to stdout,
    and serves until a [shutdown] request arrives. The socket file is
    removed on exit. *)
val serve : ?trace:Observe.Trace.ctx -> socket:string -> Engine.t -> unit

(** [error_message ?trace e] is the error a response reports for [e].
    The failures a bad request is expected to cause — unparsable JSON,
    syntax errors in facts or atoms ([Parser.Parse_error],
    [Lexer.Lex_error]), arity mismatches, [Ast.Check_error],
    [Aggregate.Agg_error], [Failure] and [Invalid_argument] (e.g.
    {!Relational.Schema} lookups) — report their own message. Any other
    exception ([Not_found], [Stack_overflow], [Out_of_memory], ...) is
    [internal: <exception>], counted in [serve.exn.<Constructor>]. *)
val error_message : ?trace:Observe.Trace.ctx -> exn -> string

(** [handle ?trace engine line] processes one request line and returns
    [(response_line, keep_going)] — exposed for tests and in-process
    drivers; [serve] is this in a loop. *)
val handle : ?trace:Observe.Trace.ctx -> Engine.t -> string -> string * bool
