module SMap = Map.Make (String)

(* An instance pairs the name -> relation map with a memoized active
   domain, the same order-on-demand view pattern as [Relation]'s sorted
   list: [adom_memo] is [None] until [adom] is first asked for, and every
   constructor/mutator produces a record with the memo reset. The memo
   write is a benign race under parallel evaluation — concurrent readers
   compute the same list and a single pointer store is atomic. *)
type t = { rels : Relation.t SMap.t; mutable adom_memo : Value.t list option }

let make rels = { rels; adom_memo = None }
let empty = { rels = SMap.empty; adom_memo = Some [] }

let find name i =
  match SMap.find_opt name i.rels with None -> Relation.empty | Some r -> r

let set name r i =
  make (if Relation.is_empty r then SMap.remove name i.rels
        else SMap.add name r i.rels)

let add_fact name tup i = set name (Relation.add tup (find name i)) i
let remove_fact name tup i = set name (Relation.remove tup (find name i)) i
let mem_fact name tup i = Relation.mem tup (find name i)

let of_list bindings =
  List.fold_left
    (fun i (name, rows) ->
      set name (Relation.union (Relation.of_rows rows) (find name i)) i)
    empty bindings

let names i = List.map fst (SMap.bindings i.rels)

let restrict keep i =
  make (SMap.filter (fun name _ -> List.mem name keep) i.rels)

let drop names i =
  make (SMap.filter (fun name _ -> not (List.mem name names)) i.rels)

let union a b =
  make (SMap.union (fun _ ra rb -> Some (Relation.union ra rb)) a.rels b.rels)

let diff a b =
  make
    (SMap.filter_map
       (fun name ra ->
         let r = Relation.diff ra (find name b) in
         if Relation.is_empty r then None else Some r)
       a.rels)

let subset a b =
  SMap.for_all (fun name ra -> Relation.subset ra (find name b)) a.rels

let equal a b = SMap.equal Relation.equal a.rels b.rels
let compare a b = SMap.compare Relation.compare a.rels b.rels

let total_facts i =
  SMap.fold (fun _ r acc -> acc + Relation.cardinal r) i.rels 0

let adom i =
  match i.adom_memo with
  | Some vs -> vs
  | None ->
      let vs =
        Value.Intern.decode_distinct (fun f ->
            SMap.iter (fun _ r -> Relation.iter_ids f r) i.rels)
      in
      i.adom_memo <- Some vs;
      vs

let fold f i acc = SMap.fold f i.rels acc

let map_values f i =
  make
    (SMap.map
       (fun r ->
         Relation.map (fun t -> Tuple.make (Array.map f (Tuple.values t))) r)
       i.rels)

let schema i =
  SMap.fold
    (fun name r acc ->
      match Relation.arity r with
      | None -> acc
      | Some a -> Schema.add (Schema.rel name a) acc)
    i.rels Schema.empty

let iter_facts f i = SMap.iter (fun name r -> Relation.iter (f name) r) i.rels

let pp ppf i =
  let first = ref true in
  let b = Buffer.create 64 in
  iter_facts
    (fun name t ->
      if !first then first := false else Format.pp_force_newline ppf ();
      Buffer.clear b;
      Tuple.render_fact Value.Fact b name t;
      Format.pp_print_string ppf (Buffer.contents b))
    i

let to_string i =
  let b = Buffer.create 256 in
  iter_facts
    (fun name t ->
      if Buffer.length b > 0 then Buffer.add_char b '\n';
      Tuple.render_fact Value.Fact b name t)
    i;
  Buffer.contents b

(* --- fact loading ------------------------------------------------------ *)

(* Per-load token cache: the bytes of a token -> its interned id. Open
   addressing over parallel arrays, so a lookup hashes and compares the
   token where it lies in the input, without allocating a substring;
   [Value.parse] and [Value.Intern.id] run once per distinct token. *)
module Tokens = struct
  type t = {
    mutable keys : string array;
    mutable hashes : int array;
    mutable ids : int array;  (** -1 marks an empty slot *)
    mutable count : int;
  }

  let create n =
    let cap = ref 16 in
    while !cap < 2 * n do
      cap := 2 * !cap
    done;
    {
      keys = Array.make !cap "";
      hashes = Array.make !cap 0;
      ids = Array.make !cap (-1);
      count = 0;
    }

  let hash src s e =
    let h = ref (e - s) in
    for i = s to e - 1 do
      let x = (!h lxor Char.code (String.unsafe_get src i)) * 0x9E3779B1 in
      h := x lxor (x lsr 29)
    done;
    !h land max_int

  (* [src.[s..e)] = [key] *)
  let same src s e key =
    String.length key = e - s
    &&
    let i = ref s in
    while !i < e && String.unsafe_get src !i = String.unsafe_get key (!i - s) do
      incr i
    done;
    !i = e

  (* The slot of the token [src.[s..e)] with hash [h]: its own if cached,
     else the empty slot where it would go. *)
  let slot c src s e h =
    let mask = Array.length c.ids - 1 in
    let j = ref (h land mask) in
    while c.ids.(!j) >= 0 && not (c.hashes.(!j) = h && same src s e c.keys.(!j))
    do
      j := (!j + 1) land mask
    done;
    !j

  (* the cached id of [src.[s..e)], or -1 *)
  let find c src s e = c.ids.(slot c src s e (hash src s e))

  let rec add c key id =
    if 2 * (c.count + 1) > Array.length c.ids then (
      let keys = c.keys and ids = c.ids in
      let cap = 2 * Array.length ids in
      c.keys <- Array.make cap "";
      c.hashes <- Array.make cap 0;
      c.ids <- Array.make cap (-1);
      c.count <- 0;
      Array.iteri (fun j i -> if i >= 0 then add c keys.(j) i) ids);
    let n = String.length key in
    let h = hash key 0 n in
    let j = slot c key 0 n h in
    if c.ids.(j) < 0 then (
      c.keys.(j) <- key;
      c.hashes.(j) <- h;
      c.ids.(j) <- id;
      c.count <- c.count + 1)
end

(* One predicate's facts so far: the distinct rows, newest first, and
   the table from their id vectors to them that deduplicates them. The
   table becomes the relation's membership set ({!Relation.of_loaded}). *)
type loading = {
  name : string;
  arity : int;
  seen : Tuple.t Tuple.KTbl.t;
  mutable rows : Tuple.t list;
}

(* the predicate before the first fact: its empty name matches no span *)
let no_pred =
  { name = ""; arity = 0; seen = Tuple.KTbl.create 1; rows = [] }

type loader = {
  len : int;  (** input length *)
  tokens : Tokens.t;
  preds : (string, loading) Hashtbl.t;
  mutable last : loading;  (** the predicate of the previous fact *)
  mutable hits : int;  (** tokens the cache resolved *)
  mutable argv : int array;  (** the argument ids of the fact being read *)
  mutable nargs : int;
}

let blank c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'
let rec ltrim src s e =
  if s < e && blank src.[s] then ltrim src (s + 1) e else s

let rec rtrim src s e =
  if e > s && blank src.[e - 1] then rtrim src s (e - 1) else e

let fail lineno msg = failwith (Printf.sprintf "facts line %d: %s" lineno msg)

(* A single quote opens a quoted symbol only where an argument starts:
   after a '(' or a ',', blanks aside. Elsewhere it is an ordinary
   character of a bare token ([it's]). *)
let opens_symbol c = c = '(' || c = ','

(* The argument [src.[s..e)]: its id from the cache, or parsed, interned
   and cached on its first occurrence in the load. *)
let arg ld src s e lineno =
  let s = ltrim src s e in
  let e = rtrim src s e in
  if s = e then fail lineno "empty argument";
  if ld.nargs = Array.length ld.argv then (
    let bigger = Array.make (2 * ld.nargs) 0 in
    Array.blit ld.argv 0 bigger 0 ld.nargs;
    ld.argv <- bigger);
  let id = Tokens.find ld.tokens src s e in
  let id =
    if id >= 0 then (
      ld.hits <- ld.hits + 1;
      id)
    else
      let key = String.sub src s (e - s) in
      match Value.parse key with
      | v ->
          let id = Value.Intern.id v in
          Tokens.add ld.tokens key id;
          id
      | exception Invalid_argument msg -> fail lineno msg
  in
  ld.argv.(ld.nargs) <- id;
  ld.nargs <- ld.nargs + 1

let predicate ld src s e n ~rest =
  if Tokens.same src s e ld.last.name then ld.last
  else
    let name = String.sub src s (e - s) in
    match Hashtbl.find_opt ld.preds name with
    | Some p -> p
    | None ->
        let seen = Tuple.KTbl.create (max 8 (rest / 32)) in
        let p = { name; arity = n; seen; rows = [] } in
        Hashtbl.add ld.preds name p;
        p

(* The statement [src.[s..e)], ending on line [lineno] with [rest] input
   bytes after it. *)
let fact ld src s e lineno ~rest =
  let s = ltrim src s e in
  let e = rtrim src s e in
  if s < e then begin
    let lp = ref s in
    while !lp < e && src.[!lp] <> '(' do
      incr lp
    done;
    let lp = !lp in
    if lp = e then
      fail lineno
        (Printf.sprintf "expected pred(args), got %S"
           (String.sub src s (e - s)));
    if src.[e - 1] <> ')' then fail lineno "expected closing parenthesis";
    let ne = rtrim src s lp in
    if ne = s then fail lineno "empty predicate name";
    ld.nargs <- 0;
    if ltrim src (lp + 1) (e - 1) < e - 1 then begin
      (* the quote state runs from the statement's start, as in the
         statement scan, even when the first '(' lies inside a string;
         [quote] is the open quote character, or '\000' *)
      let start = ref (lp + 1) and i = ref s and quote = ref '\000' in
      while !i < e - 1 do
        let c = String.unsafe_get src !i in
        if !quote <> '\000' then (
          if c = '\\' then incr i else if c = !quote then quote := '\000')
        else if
          c = '"'
          || c = '\''
             &&
             let j = rtrim src s !i in
             j > s && opens_symbol src.[j - 1]
        then quote := c
        else if c = ',' && !i > lp then (
          arg ld src !start !i lineno;
          start := !i + 1);
        incr i
      done;
      arg ld src !start (e - 1) lineno
    end;
    let n = ld.nargs in
    let p = predicate ld src s ne n ~rest in
    ld.last <- p;
    if p.arity <> n then
      fail lineno
        (Printf.sprintf "%s has arity %d, got %d argument(s)" p.name p.arity n);
    let ids = Array.sub ld.argv 0 n in
    if not (Tuple.KTbl.mem p.seen ids) then (
      let t = Tuple.of_ids ids in
      Tuple.KTbl.add p.seen ids t;
      p.rows <- t :: p.rows)
  end

(* The statement [text.[s..e)] as the statement parser must see it:
   comments dropped and line breaks turned into spaces, strings and
   quoted symbols kept whole (a quoted symbol keeps its line breaks too:
   the Term dialect writes them raw). Only a statement that spans lines
   or holds a comment needs it. *)
let clean text s e =
  let b = Buffer.create (e - s) in
  let i = ref s and quote = ref '\000' in
  let put c = Buffer.add_char b (if c = '\n' then ' ' else c) in
  let put_quoted c = if !quote = '\'' then Buffer.add_char b c else put c in
  (* the last non-blank byte written, as [fact] will see it *)
  let rec last k =
    if k > 0 && blank (Buffer.nth b (k - 1)) then last (k - 1)
    else if k > 0 then Buffer.nth b (k - 1)
    else ' '
  in
  while !i < e do
    let c = text.[!i] in
    if !quote <> '\000' then (
      put_quoted c;
      if c = '\\' && !i + 1 < e then (
        incr i;
        put_quoted text.[!i])
      else if c = !quote then quote := '\000';
      incr i)
    else if c = '%' || (c = '/' && !i + 1 < e && text.[!i + 1] = '/') then
      while !i < e && text.[!i] <> '\n' do
        incr i
      done
    else (
      if c = '"' || (c = '\'' && opens_symbol (last (Buffer.length b))) then
        quote := c;
      put c;
      incr i)
  done;
  Buffer.contents b

let statement ld text s e ~dirty lineno =
  if dirty then
    let src = clean text s e in
    fact ld src 0 (String.length src) lineno ~rest:(ld.len - e)
  else fact ld text s e lineno ~rest:(ld.len - e)

(* One pass over the bytes: it tracks the line, the quote state of
   strings and quoted symbols (a backslash escapes the next character)
   and comments, and cuts the text into dot-terminated statements for
   [fact]. *)
let scan ld text =
  let len = ld.len in
  (* the current statement: its first non-blank offset (-1 while none),
     the line of its last non-blank character, and whether a line break
     or a comment lies inside it *)
  let st = ref (-1) and st_line = ref 1 and dirty = ref false in
  let pos = ref 0 and line = ref 1 in
  (* the last byte outside blanks, comments and quotes *)
  let prev = ref '.' in
  (* from the opening quote [q] at [!pos] on to its closing quote *)
  let quoted q =
    if !st < 0 then st := !pos;
    st_line := !line;
    let closed = ref false in
    while (not !closed) && !pos + 1 < len do
      incr pos;
      match String.unsafe_get text !pos with
      | '\n' ->
          incr line;
          dirty := true
      | '\\' when !pos + 1 < len ->
          st_line := !line;
          incr pos;
          if String.unsafe_get text !pos = '\n' then (
            incr line;
            dirty := true)
      | c when c = q ->
          st_line := !line;
          closed := true
      | c -> if not (blank c) then st_line := !line
    done;
    prev := q
  in
  while !pos < len do
    (match String.unsafe_get text !pos with
    | '\n' ->
        incr line;
        if !st >= 0 then dirty := true
    | ' ' | '\t' | '\r' | '\012' -> ()
    | '.' ->
        prev := '.';
        if !st >= 0 then (
          statement ld text !st !pos ~dirty:!dirty !line;
          st := -1;
          dirty := false)
    | '"' -> quoted '"'
    | '\'' when opens_symbol !prev -> quoted '\''
    | c when c = '%' || (c = '/' && !pos + 1 < len && text.[!pos + 1] = '/')
      ->
        (* a comment, to the end of the line *)
        if !st >= 0 then dirty := true;
        while !pos + 1 < len && String.unsafe_get text (!pos + 1) <> '\n' do
          incr pos
        done
    | c ->
        if !st < 0 then st := !pos;
        st_line := !line;
        prev := c);
    incr pos
  done;
  if !st >= 0 then statement ld text !st len ~dirty:!dirty !st_line

(* Facts and arguments are cut as spans of the input; a '.' or ','
   inside "..." or a quoted symbol neither ends a fact nor splits an
   argument, and '%' or "//" there does not start a comment. Each
   predicate's facts are deduplicated into one table, which its relation
   keeps ({!Relation.of_loaded}): no trie is built here. *)
let parse_facts text =
  let len = String.length text in
  let ld =
    {
      len;
      tokens = Tokens.create (len / 64);
      preds = Hashtbl.create 8;
      last = no_pred;
      hits = 0;
      argv = Array.make 8 0;
      nargs = 0;
    }
  in
  (match scan ld text with
  | () -> Value.Intern.add_hits ld.hits
  | exception e ->
      Value.Intern.add_hits ld.hits;
      raise e);
  if Hashtbl.length ld.preds = 0 then empty
  else
    make
      (Hashtbl.fold
         (fun name p acc ->
           SMap.add name (Relation.of_loaded p.rows p.seen) acc)
         ld.preds SMap.empty)
