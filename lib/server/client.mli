(** Socket-side client for the {!Daemon} protocol: one connection per
    call, one request line out, one response line back. *)

(** [request ~socket req] connects to the Unix-domain socket, sends
    [req] and returns the parsed success object, or [Error] for
    connection failures, malformed responses and server-side
    [{"ok":false}] errors. *)
val request :
  socket:string -> Protocol.request -> (Observe.Json.t, string) result
