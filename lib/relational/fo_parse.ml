(* Recursive-descent parser for the FO query surface syntax used by the
   CLI. Grammar (loosest binding first):

     formula  ::= or_f ("->" formula)?          right-associative
     or_f     ::= and_f (("|" | "or") and_f)*
     and_f    ::= unary (("&" | "and") unary)*
     unary    ::= ("!" | "not") unary
                | ("exists" | "forall") var ("," var)* "(" formula ")"
                | primary
     primary  ::= "(" formula ")" | "true" | "false"
                | ident "(" terms ")"           atom
                | term ("=" | "!=") term
     term     ::= uppercase ident               variable
                | int / "string" / ident        constant (Value.parse)

   The variable convention follows the Datalog surface syntax: an
   identifier starting with an uppercase letter (or underscore) is a
   variable, everything else is a constant. *)

type token =
  | Ident of string
  | Str_lit of string
  | Int_lit of string
  | Lparen
  | Rparen
  | Comma
  | Bang
  | Bang_eq
  | Equal
  | Amp
  | Bar
  | Arrow
  | Eof

exception Parse_error of string

let error fmt = Format.kasprintf (fun s -> raise (Parse_error s)) fmt

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

let tokenize s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  let push t = toks := t :: !toks in
  while !i < n do
    let c = s.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '(' then (push Lparen; incr i)
    else if c = ')' then (push Rparen; incr i)
    else if c = ',' then (push Comma; incr i)
    else if c = '=' then (push Equal; incr i)
    else if c = '&' then (push Amp; incr i)
    else if c = '|' then (push Bar; incr i)
    else if c = '!' then
      if !i + 1 < n && s.[!i + 1] = '=' then (push Bang_eq; i := !i + 2)
      else (push Bang; incr i)
    else if c = '-' && !i + 1 < n && s.[!i + 1] = '>' then
      (push Arrow; i := !i + 2)
    else if c = '"' then begin
      let j = ref (!i + 1) in
      while !j < n && s.[!j] <> '"' do incr j done;
      if !j >= n then error "unterminated string literal";
      push (Str_lit (String.sub s !i (!j - !i + 1)));
      i := !j + 1
    end
    else if c = '-' || (c >= '0' && c <= '9') then begin
      let j = ref (!i + 1) in
      while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
      if c = '-' && !j = !i + 1 then error "stray '-' (expected ->)";
      push (Int_lit (String.sub s !i (!j - !i)));
      i := !j
    end
    else if is_ident_char c then begin
      let j = ref !i in
      while !j < n && is_ident_char s.[!j] do incr j done;
      push (Ident (String.sub s !i (!j - !i)));
      i := !j
    end
    else error "unexpected character %C" c
  done;
  push Eof;
  List.rev !toks

type state = { mutable toks : token list }

let peek st = match st.toks with [] -> Eof | t :: _ -> t

let advance st =
  match st.toks with [] -> () | _ :: rest -> st.toks <- rest

let expect st t what =
  if peek st = t then advance st else error "expected %s" what

let is_var name = name <> "" && (name.[0] = '_' || (name.[0] >= 'A' && name.[0] <= 'Z'))

let constant s =
  match Value.parse s with
  | v -> Fo.Cst v
  | exception Invalid_argument msg -> error "%s" msg

let term_of st =
  match peek st with
  | Ident name ->
      advance st;
      if is_var name then Fo.Var name else constant name
  | Str_lit s | Int_lit s ->
      advance st;
      constant s
  | _ -> error "expected a term"

let keyword = function
  | Ident ("exists" | "forall" | "not" | "and" | "or" | "true" | "false") ->
      true
  | _ -> false

let rec formula st =
  let lhs = or_f st in
  match peek st with
  | Arrow ->
      advance st;
      Fo.Implies (lhs, formula st)
  | _ -> lhs

and or_f st =
  let lhs = ref (and_f st) in
  let rec loop () =
    match peek st with
    | Bar | Ident "or" ->
        advance st;
        lhs := Fo.Or (!lhs, and_f st);
        loop ()
    | _ -> ()
  in
  loop ();
  !lhs

and and_f st =
  let lhs = ref (unary st) in
  let rec loop () =
    match peek st with
    | Amp | Ident "and" ->
        advance st;
        lhs := Fo.And (!lhs, unary st);
        loop ()
    | _ -> ()
  in
  loop ();
  !lhs

and unary st =
  match peek st with
  | Bang | Ident "not" ->
      advance st;
      Fo.Not (unary st)
  | Ident (("exists" | "forall") as q) ->
      advance st;
      let rec vars acc =
        match peek st with
        | Ident name when not (keyword (Ident name)) ->
            advance st;
            if not (is_var name) then
              error "quantified name %s must start with an uppercase letter"
                name;
            let acc = acc @ [ name ] in
            if peek st = Comma then (advance st; vars acc) else acc
        | _ -> error "expected a variable after %s" q
      in
      let xs = vars [] in
      expect st Lparen "'(' before quantified body";
      let body = formula st in
      expect st Rparen "')' after quantified body";
      if q = "exists" then Fo.Exists (xs, body) else Fo.Forall (xs, body)
  | _ -> primary st

and primary st =
  match peek st with
  | Lparen ->
      advance st;
      let f = formula st in
      expect st Rparen "')'";
      f
  | Ident "true" ->
      advance st;
      Fo.True
  | Ident "false" ->
      advance st;
      Fo.False
  | Ident name
    when (not (keyword (Ident name)))
         && (match st.toks with _ :: Lparen :: _ -> true | _ -> false) ->
      advance st;
      advance st;
      let rec args acc =
        match peek st with
        | Rparen ->
            advance st;
            acc
        | _ ->
            let t = term_of st in
            let acc = acc @ [ t ] in
            if peek st = Comma then (advance st; args acc)
            else (expect st Rparen "')' after atom arguments"; acc)
      in
      Fo.Atom (name, args [])
  | _ ->
      let a = term_of st in
      (match peek st with
      | Equal ->
          advance st;
          Fo.Eq (a, term_of st)
      | Bang_eq ->
          advance st;
          Fo.Not (Fo.Eq (a, term_of st))
      | _ -> error "expected '=' or '!=' after a term")

let formula_of_string s =
  let st = { toks = tokenize s } in
  let f = formula st in
  if peek st <> Eof then error "trailing input after formula";
  f
