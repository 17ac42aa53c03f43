type token =
  | IDENT of string
  | QVAR of string
  | INT of int
  | STRING of string
  | QSYM of string
  | LPAREN
  | RPAREN
  | COMMA
  | DOT
  | ARROW
  | QUERY
  | BANG
  | EQ
  | NEQ
  | COLON
  | KW_NOT
  | KW_FORALL
  | KW_BOTTOM
  | EOF

exception Lex_error of int * string

let err line fmt = Format.kasprintf (fun s -> raise (Lex_error (line, s))) fmt

let is_ident_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' -> true
  | _ -> false

(* '\'' is deliberately excluded from identifiers to keep quoted symbols
   unambiguous *)
let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
  | _ -> false

let is_digit = function '0' .. '9' -> true | _ -> false

let tokenize src =
  let n = String.length src in
  let line = ref 1 in
  let toks = ref [] in
  let push t = toks := (t, !line) :: !toks in
  let i = ref 0 in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  while !i < n do
    let c = src.[!i] in
    (match c with
    | '\n' ->
        incr line;
        incr i
    | ' ' | '\t' | '\r' -> incr i
    | '%' ->
        while !i < n && src.[!i] <> '\n' do
          incr i
        done
    | '/' when peek 1 = Some '/' ->
        while !i < n && src.[!i] <> '\n' do
          incr i
        done
    | '/' when peek 1 = Some '*' ->
        let depth = ref 1 in
        i := !i + 2;
        let start_line = !line in
        while !depth > 0 do
          if !i >= n then err start_line "unterminated comment"
          else if src.[!i] = '\n' then (
            incr line;
            incr i)
          else if src.[!i] = '*' && peek 1 = Some '/' then (
            decr depth;
            i := !i + 2)
          else if src.[!i] = '/' && peek 1 = Some '*' then (
            incr depth;
            i := !i + 2)
          else incr i
        done
    | '(' ->
        push LPAREN;
        incr i
    | ')' ->
        push RPAREN;
        incr i
    | ',' ->
        push COMMA;
        incr i
    | '.' ->
        push DOT;
        incr i
    | '=' ->
        push EQ;
        incr i
    | '!' when peek 1 = Some '=' ->
        push NEQ;
        i := !i + 2
    | '!' ->
        push BANG;
        incr i
    | ':' when peek 1 = Some '-' ->
        push ARROW;
        i := !i + 2
    | ':' ->
        push COLON;
        incr i
    | '<' when peek 1 = Some '-' ->
        push ARROW;
        i := !i + 2
    | '?' when peek 1 = Some '-' ->
        push QUERY;
        i := !i + 2
    | '?' when (match peek 1 with Some c -> is_ident_start c | None -> false)
      ->
        incr i;
        let start = !i in
        while !i < n && is_ident_char src.[!i] do
          incr i
        done;
        push (QVAR (String.sub src start (!i - start)))
    | '"' ->
        let start_line = !line in
        let buf = Buffer.create 16 in
        incr i;
        let closed = ref false in
        while (not !closed) && !i < n do
          let c = src.[!i] in
          if c = '"' then (
            closed := true;
            incr i)
          else if c = '\\' && !i + 1 < n then (
            (match src.[!i + 1] with
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | '\\' -> Buffer.add_char buf '\\'
            | '"' -> Buffer.add_char buf '"'
            | c -> Buffer.add_char buf c);
            i := !i + 2)
          else (
            if c = '\n' then incr line;
            Buffer.add_char buf c;
            incr i)
        done;
        if not !closed then err start_line "unterminated string literal";
        push (STRING (Buffer.contents buf))
    | '\'' ->
        let start_line = !line in
        let buf = Buffer.create 16 in
        incr i;
        let closed = ref false in
        while (not !closed) && !i < n do
          let c = src.[!i] in
          if c = '\'' then (
            closed := true;
            incr i)
          else if
            c = '\\' && !i + 1 < n
            && (src.[!i + 1] = '\'' || src.[!i + 1] = '\\')
          then (
            (* Value.render's Term dialect escapes these two *)
            Buffer.add_char buf src.[!i + 1];
            i := !i + 2)
          else (
            if c = '\n' then incr line;
            Buffer.add_char buf c;
            incr i)
        done;
        if not !closed then err start_line "unterminated quoted symbol";
        push (QSYM (Buffer.contents buf))
    | c when is_digit c || (c = '-' && (match peek 1 with
                                        | Some d -> is_digit d
                                        | None -> false)) ->
        let start = !i in
        if c = '-' then incr i;
        while !i < n && is_digit src.[!i] do
          incr i
        done;
        let lit = String.sub src start (!i - start) in
        (match int_of_string_opt lit with
        | Some n -> push (INT n)
        | None -> err !line "integer literal %s out of range" lit)
    | c when is_ident_start c ->
        let start = !i in
        while !i < n && is_ident_char src.[!i] do
          incr i
        done;
        let s = String.sub src start (!i - start) in
        push
          (match s with
          | "not" -> KW_NOT
          | "forall" -> KW_FORALL
          | "bottom" -> KW_BOTTOM
          | _ -> IDENT s)
    | c -> err !line "unexpected character %C" c);
    ()
  done;
  push EOF;
  List.rev !toks

let token_to_string = function
  | IDENT s -> Printf.sprintf "identifier %s" s
  | QVAR s -> Printf.sprintf "variable ?%s" s
  | INT n -> Printf.sprintf "integer %d" n
  | STRING s -> Printf.sprintf "string %S" s
  | QSYM s -> Printf.sprintf "symbol '%s'" s
  | LPAREN -> "("
  | RPAREN -> ")"
  | COMMA -> ","
  | DOT -> "."
  | ARROW -> ":-"
  | QUERY -> "?-"
  | BANG -> "!"
  | EQ -> "="
  | NEQ -> "!="
  | COLON -> ":"
  | KW_NOT -> "not"
  | KW_FORALL -> "forall"
  | KW_BOTTOM -> "bottom"
  | EOF -> "end of input"
