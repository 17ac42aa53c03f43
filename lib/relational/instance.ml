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

(* Per-load token cache: the bytes of a token -> its interned id, so
   [Value.parse] and [Value.Intern.id] run once per distinct token. Open
   addressing over one int array of (key, id) pairs, so a probe reads a
   key and its id side by side. A token of at most 7 bytes is its
   own key: its length and bytes packed into an int, compared without
   reading any string. A longer token's key is its hash with bit 59 set,
   and a matching key is confirmed against the token's bytes, kept by
   slot in [long]. The table grows with what it holds, at most half
   full. *)
module Tokens = struct
  type t = {
    mutable cells : int array;  (** key, id; key 0 marks an empty slot *)
    mutable long : string array;  (** the bytes of each long token *)
    mutable shift : int;  (** 63 - log2 of the slot count *)
    mutable count : int;
  }

  (* 16 slots *)
  let create () =
    { cells = Array.make 32 0; long = [||]; shift = 59; count = 0 }

  let long_key = 1 lsl 59

  external get64u : string -> int -> int64 = "%caml_string_get64u"
  external bswap64 : int64 -> int64 = "%bswap_int64"

  (* the key of the token [src.[s..e)], [s < e] *)
  let key src s e =
    let n = e - s in
    if n <= 7 then
      let bytes =
        if s + 8 <= String.length src then
          let w = get64u src s in
          Int64.to_int (if Sys.big_endian then bswap64 w else w)
          land ((1 lsl (8 * n)) - 1)
        else
          let b = ref 0 in
          for i = e - 1 downto s do
            b := (!b lsl 8) lor Char.code (String.unsafe_get src i)
          done;
          !b
      in
      bytes lor (n lsl 56)
    else
      let h = ref n in
      for i = s to e - 1 do
        let x = (!h lxor Char.code (String.unsafe_get src i)) * 0x9E3779B1 in
        h := x lxor (x lsr 29)
      done;
      (!h land (long_key - 1)) lor long_key

  (* multiplicative hashing: the slot is the product's top bits *)
  let home c key = (key * 0x1E3779B97F4A7C15) lsr c.shift

  (* [src.[s..e)] = [key] *)
  let same src s e key =
    String.length key = e - s
    &&
    let i = ref s in
    while !i < e && String.unsafe_get src !i = String.unsafe_get key (!i - s) do
      incr i
    done;
    !i = e

  (* From slot [j] on: the id of the token [src.[s..e)] with key [key]
     if cached, else -1 - the empty slot where it would go. *)
  let rec probe c key src s e j =
    let k = Array.unsafe_get c.cells (2 * j) in
    if k = 0 then -1 - j
    else if k = key && (key < long_key || same src s e c.long.(j)) then
      Array.unsafe_get c.cells ((2 * j) + 1)
    else probe c key src s e ((j + 1) land ((Array.length c.cells / 2) - 1))

  let find c key src s e = probe c key src s e (home c key)

  let rec free c j =
    if c.cells.(2 * j) = 0 then j
    else free c ((j + 1) land ((Array.length c.cells / 2) - 1))

  let put c j key token id =
    c.cells.(2 * j) <- key;
    c.cells.((2 * j) + 1) <- id;
    if key >= long_key then (
      if Array.length c.long = 0 then
        c.long <- Array.make (Array.length c.cells / 2) "";
      c.long.(j) <- token)

  (* [token] with key [key] goes to the empty slot [j] {!find} named *)
  let add c j key token id =
    put c j key token id;
    c.count <- c.count + 1;
    if 2 * c.count > Array.length c.cells / 2 then begin
      let cells = c.cells and long = c.long in
      c.cells <- Array.make (2 * Array.length cells) 0;
      c.long <- [||];
      c.shift <- c.shift - 1;
      for j = 0 to (Array.length cells / 2) - 1 do
        let key = cells.(2 * j) in
        if key <> 0 then
          put c (free c (home c key)) key
            (if key >= long_key then long.(j) else "")
            cells.((2 * j) + 1)
      done
    end
end

(* One predicate's facts so far: the distinct rows, newest first, and
   the set of them that deduplicates them. Rows and set become the
   relation ({!Relation.of_loaded}). *)
type loading = {
  name : string;
  arity : int;
  seen : Tuple.Set.t;
  mutable rows : Tuple.t list;
}

(* the predicate before the first fact: its empty name matches no span *)
let no_pred =
  { name = ""; arity = 0; seen = Tuple.Set.create 1; rows = [] }

type loader = {
  len : int;  (** input length *)
  tokens : Tokens.t;
  preds : (string, loading) Hashtbl.t;
  mutable last : loading;  (** the predicate of the previous fact *)
  mutable hits : int;  (** tokens the cache resolved *)
  mutable argv : int array;  (** the argument ids of the fact being read *)
  mutable cuts : int array;
      (** the offsets of the commas that split the statement being read
          into arguments *)
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

(* record a comma at offset [i] as the [k]th cut *)
let cut ld k i =
  if k = Array.length ld.cuts then (
    let bigger = Array.make (2 * k) 0 in
    Array.blit ld.cuts 0 bigger 0 k;
    ld.cuts <- bigger);
  ld.cuts.(k) <- i

(* The [k]th argument, [src.[s..e)]: its id from the cache, or parsed,
   interned and cached on its first occurrence in the load. *)
let arg ld src s e lineno k =
  let s = ltrim src s e in
  let e = rtrim src s e in
  if s = e then fail lineno "empty argument";
  if k = Array.length ld.argv then (
    let bigger = Array.make (2 * k) 0 in
    Array.blit ld.argv 0 bigger 0 k;
    ld.argv <- bigger);
  let key = Tokens.key src s e in
  let id = Tokens.find ld.tokens key src s e in
  ld.argv.(k) <-
    (if id >= 0 then (
       ld.hits <- ld.hits + 1;
       id)
     else
       let token = String.sub src s (e - s) in
       match Value.parse token with
       | v ->
           let id' = Value.Intern.id v in
           Tokens.add ld.tokens (-1 - id) key token id';
           id'
       | exception Invalid_argument msg -> fail lineno msg)

let predicate ld src s e n ~rest =
  if Tokens.same src s e ld.last.name then ld.last
  else
    let name = String.sub src s (e - s) in
    match Hashtbl.find_opt ld.preds name with
    | Some p -> p
    | None ->
        let seen = Tuple.Set.create (max 8 (rest / 32)) in
        let p = { name; arity = n; seen; rows = [] } in
        Hashtbl.add ld.preds name p;
        p

(* The statement [src.[s..e)], ending on line [lineno] with [rest] input
   bytes after it. [lp] is the offset of its first '(' (-1 if none),
   quoted or not, and [ld.cuts.(0 .. ncuts - 1)] are the commas after it
   outside quotes: the arguments lie between [lp], the cuts and the
   closing parenthesis. *)
let fact ld src s e ~lp ~ncuts lineno ~rest =
  let s = ltrim src s e in
  let e = rtrim src s e in
  if s < e then begin
    if lp < 0 then
      fail lineno
        (Printf.sprintf "expected pred(args), got %S"
           (String.sub src s (e - s)));
    if src.[e - 1] <> ')' then fail lineno "expected closing parenthesis";
    let ne = rtrim src s lp in
    if ne = s then fail lineno "empty predicate name";
    let n =
      if ncuts = 0 && ltrim src (lp + 1) (e - 1) = e - 1 then 0
      else begin
        let start = ref (lp + 1) in
        for k = 0 to ncuts - 1 do
          let i = ld.cuts.(k) in
          arg ld src !start i lineno k;
          start := i + 1
        done;
        arg ld src !start (e - 1) lineno ncuts;
        ncuts + 1
      end
    in
    let p = predicate ld src s ne n ~rest in
    ld.last <- p;
    if p.arity <> n then
      fail lineno
        (Printf.sprintf "%s has arity %d, got %d argument(s)" p.name p.arity n);
    let t = Tuple.of_ids (Array.sub ld.argv 0 n) in
    if Tuple.Set.add p.seen t then p.rows <- t :: p.rows
  end

(* The statement [text.[s..e)] as {!fact} must see it, with its first
   '(' and its cuts: comments dropped and line breaks turned into spaces,
   strings and quoted symbols kept whole (a quoted symbol keeps its line
   breaks too: the Term dialect writes them raw). Only a statement that
   spans lines or holds a comment needs it. *)
let clean ld text s e =
  let b = Buffer.create (e - s) in
  let i = ref s and quote = ref '\000' in
  let lp = ref (-1) and ncuts = ref 0 in
  let put c =
    if c = '(' && !lp < 0 then lp := Buffer.length b;
    Buffer.add_char b c
  in
  let put_plain c = put (if c = '\n' then ' ' else c) in
  let put_quoted c = if !quote = '\'' then put c else put_plain c in
  (* the last non-blank byte written *)
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
        quote := c
      else if c = ',' && !lp >= 0 then (
        cut ld !ncuts (Buffer.length b);
        incr ncuts);
      put_plain c;
      incr i)
  done;
  (Buffer.contents b, !lp, !ncuts)

let statement ld text s e ~lp ~ncuts ~dirty lineno =
  let rest = ld.len - e in
  if dirty then
    let src, lp, ncuts = clean ld text s e in
    fact ld src 0 (String.length src) ~lp ~ncuts lineno ~rest
  else fact ld text s e ~lp ~ncuts lineno ~rest

(* One pass over the bytes: it tracks the line, the quote state of
   strings and quoted symbols (a backslash escapes the next character)
   and comments, and cuts the text into dot-terminated statements for
   [fact], and each statement into arguments: it notes the statement's
   first '(' and, after it, every ',' outside quotes. *)
let scan ld text =
  let len = ld.len in
  (* the current statement: its first non-blank offset (-1 while none),
     the line of its last non-blank character, whether a line break or
     a comment lies inside it, its first '(' (-1 while none) and its
     cuts so far *)
  let st = ref (-1) and st_line = ref 1 and dirty = ref false in
  let lp = ref (-1) and ncuts = ref 0 in
  let pos = ref 0 and line = ref 1 in
  (* the last byte outside blanks, comments and quotes *)
  let prev = ref '.' in
  while !pos < len do
    (match String.unsafe_get text !pos with
    | '\n' ->
        incr line;
        if !st >= 0 then dirty := true
    | ' ' | '\t' | '\r' | '\012' -> ()
    | '.' ->
        prev := '.';
        if !st >= 0 then (
          statement ld text !st !pos ~lp:!lp ~ncuts:!ncuts ~dirty:!dirty !line;
          st := -1;
          dirty := false;
          lp := -1;
          ncuts := 0)
    | ('"' | '\'') as q when q = '"' || opens_symbol !prev ->
        (* a string or a quoted symbol, on to its closing quote *)
        if !st < 0 then st := !pos;
        st_line := !line;
        prev := q;
        let closed = ref false in
        while (not !closed) && !pos + 1 < len do
          incr pos;
          match String.unsafe_get text !pos with
          | '\n' ->
              incr line;
              dirty := true
          | '\\' when !pos + 1 < len -> (
              st_line := !line;
              incr pos;
              match String.unsafe_get text !pos with
              | '\n' ->
                  incr line;
                  dirty := true
              | '(' -> if !lp < 0 then lp := !pos
              | _ -> ())
          | '(' ->
              st_line := !line;
              if !lp < 0 then lp := !pos
          | c when c = q ->
              st_line := !line;
              closed := true
          | c -> if not (blank c) then st_line := !line
        done
    | ('%' | '/') as c
      when c = '%' || (!pos + 1 < len && String.unsafe_get text (!pos + 1) = '/')
      ->
        (* a comment, to the end of the line *)
        if !st >= 0 then dirty := true;
        while !pos + 1 < len && String.unsafe_get text (!pos + 1) <> '\n' do
          incr pos
        done
    | ('(' | ',') as c ->
        if !st < 0 then st := !pos;
        st_line := !line;
        prev := c;
        if c = '(' then (if !lp < 0 then lp := !pos)
        else if !lp >= 0 then (
          cut ld !ncuts !pos;
          incr ncuts)
    | c ->
        if !st < 0 then st := !pos;
        st_line := !line;
        prev := c);
    incr pos
  done;
  if !st >= 0 then
    statement ld text !st len ~lp:!lp ~ncuts:!ncuts ~dirty:!dirty !st_line

(* Facts and arguments are cut as spans of the input; a '.' or ','
   inside "..." or a quoted symbol neither ends a fact nor splits an
   argument, and '%' or "//" there does not start a comment. Each
   predicate's facts are deduplicated into one {!Tuple.Set}, which with
   the rows is its relation ({!Relation.of_loaded}), copied nowhere. *)
let parse_facts text =
  let ld =
    {
      len = String.length text;
      tokens = Tokens.create ();
      preds = Hashtbl.create 8;
      last = no_pred;
      hits = 0;
      argv = Array.make 8 0;
      cuts = Array.make 8 0;
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
