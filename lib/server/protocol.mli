(** The wire protocol: one JSON object per line, both directions.

    Requests:
    {v
    {"op":"assert","facts":"G(a, b). G(b, c)."}
    {"op":"retract","facts":"G(a, b)."}
    {"op":"query","atom":"T(a, Y)","via":"materialized"}   // via optional
    {"op":"stats"}
    {"op":"shutdown"}
    v}

    Every response carries ["ok"]: [true] with op-specific fields
    (assert: [added]/[derived]/[stages]; retract:
    [removed]/[overdeleted]/[rederived]; query: [count]/[facts], each
    fact pre-rendered as ["T(a, b)."]; stats: [counters]/[histograms]),
    or [false] with an ["error"] message — a malformed or failing
    request never kills the resident process. *)

type request =
  | Assert of string  (** facts source text, {!Relational.Instance.parse_facts} syntax *)
  | Retract of string
  | Query of { atom : string; via : string }
      (** [via] is ["materialized"] (default: an indexed lookup on the
          maintained fixpoint) or ["demand"] (magic sets over the live
          base facts) *)
  | Stats
  | Shutdown

val encode_request : request -> string

(** [parse_request line] decodes one request line. [Error] explains what
    is malformed (unparsable JSON, missing/unknown [op], missing
    payload). *)
val parse_request : string -> (request, string) result

(** [ok_response fields] is the success line [{"ok":true, ...fields}]. *)
val ok_response : (string * Observe.Json.t) list -> string

(** [error_response msg] is [{"ok":false,"error":msg}]. *)
val error_response : string -> string

(** [parse_response line] returns the whole response object on
    [{"ok":true}], the ["error"] field as [Error] on [{"ok":false}]. *)
val parse_response : string -> (Observe.Json.t, string) result
