type t =
  | Int of int
  | Str of string
  | Sym of string
  | New of int

let rank = function Int _ -> 0 | Str _ -> 1 | Sym _ -> 2 | New _ -> 3

let compare a b =
  match (a, b) with
  | Int x, Int y -> Int.compare x y
  | Str x, Str y | Sym x, Sym y -> String.compare x y
  | New x, New y -> Int.compare x y
  | _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

(* Tag and payload are mixed directly — [Hashtbl.hash] on an immediate or
   a string allocates nothing, unlike the former [Hashtbl.hash (tag, v)]
   which boxed a tuple per call. *)
let hash = function
  | Int n -> (Hashtbl.hash n * 4) land max_int
  | Str s -> ((Hashtbl.hash s * 4) + 1) land max_int
  | Sym s -> ((Hashtbl.hash s * 4) + 2) land max_int
  | New n -> ((Hashtbl.hash n * 4) + 3) land max_int

let is_invented = function New _ -> true | _ -> false
let int n = Int n
let str s = Str s
let sym s = Sym s

type dialect = Fact | Term

let is_lower_ident s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

(* [String.escaped] between double quotes is exactly what [%S] prints,
   and it returns its argument unchanged when nothing needs escaping. *)
let render dialect b = function
  | Int n -> Buffer.add_string b (Int.to_string n)
  | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (String.escaped s);
      Buffer.add_char b '"'
  | Sym s when dialect = Fact || is_lower_ident s -> Buffer.add_string b s
  | Sym s ->
      Buffer.add_char b '\'';
      if String.exists (fun c -> c = '\'' || c = '\\') s then
        String.iter
          (fun c ->
            if c = '\'' || c = '\\' then Buffer.add_char b '\\';
            Buffer.add_char b c)
          s
      else Buffer.add_string b s;
      Buffer.add_char b '\''
  | New n ->
      if dialect = Term then Buffer.add_char b '\'';
      Buffer.add_string b "\xce\xbd";
      Buffer.add_string b (Int.to_string n);
      if dialect = Term then Buffer.add_char b '\''

let to_string_in dialect v =
  let b = Buffer.create 16 in
  render dialect b v;
  Buffer.contents b

let to_string v = to_string_in Fact v
let pp ppf v = Format.pp_print_string ppf (to_string v)

(* The program lexer's integer grammar, [-?[0-9]+]: [int_of_string]
   alone would also read [0x1F], [0b11], [1_000] and [+5]. *)
let is_int_literal s =
  let n = String.length s in
  let start = if n > 0 && s.[0] = '-' then 1 else 0 in
  let rec digits i = i = n || (s.[i] >= '0' && s.[i] <= '9' && digits (i + 1)) in
  start < n && digits start

(* The body of the quoted symbol [s] (['...'], as [render Term] writes
   it): a backslash before a quote or a backslash stands for that
   character, any other backslash for itself. [None] unless the first
   unescaped quote after the opening one is [s]'s last byte. *)
let unquote_sym s =
  let n = String.length s in
  let b = Buffer.create n in
  let rec go i =
    if i >= n then None
    else
      match s.[i] with
      | '\'' -> if i = n - 1 then Some (Buffer.contents b) else None
      | '\\' when i + 1 < n && (s.[i + 1] = '\'' || s.[i + 1] = '\\') ->
          Buffer.add_char b s.[i + 1];
          go (i + 2)
      | c ->
          Buffer.add_char b c;
          go (i + 1)
  in
  go 1

let parse s =
  let n = String.length s in
  if n = 0 then invalid_arg "Value.parse: empty string"
  else if s.[0] = '\'' then
    match unquote_sym s with
    | Some v -> Sym v
    | None ->
        invalid_arg
          (Printf.sprintf "Value.parse: malformed quoted symbol %s" s)
  else if s.[0] = '"' then
    (* [%n] reports how much [%S] consumed: anything left over means the
       literal had trailing garbage (e.g. ["ab"cd]), which the former
       first/last-quote guard accepted and silently truncated to [ab]. *)
    match Scanf.sscanf_opt s "%S%n" (fun v k -> (v, k)) with
    | Some (v, k) when k = n -> Str v
    | Some _ | None ->
        invalid_arg
          (Printf.sprintf "Value.parse: malformed string literal %s" s)
  else if is_int_literal s then
    match int_of_string_opt s with
    | Some i -> Int i
    | None ->
        invalid_arg
          (Printf.sprintf "Value.parse: integer literal %s out of range" s)
  else Sym s

module Intern = struct
  module H = Hashtbl.Make (struct
    type nonrec t = t

    let equal = equal
    let hash = hash
  end)

  (* One process-wide table: ids are dense, allocated in first-intern
     order, and never recycled, so an id is a stable proxy for its value
     for the lifetime of the process.

     Domain safety: the hash table (and hence every [id] call) is
     guarded by [lock]; readers never touch it. [of_id] is lock-free:
     the id -> value direction lives in a snapshot array published
     through the [rev] atomic, and a slot becomes visible only when
     [count] — written last, read first — covers it. Growing copies
     into a fresh array and publishes it via [rev] before the new slot
     is filled; since readers load [count] (acquire) before [rev], an
     id below the count they observed always lands in a live slot of
     whichever array they see. *)
  let lock = Mutex.create ()
  let tbl : int H.t = H.create 4096
  let rev = Atomic.make (Array.make 4096 (Int 0))
  let count = Atomic.make 0
  let hit_count = Atomic.make 0

  let id v =
    Mutex.lock lock;
    match H.find_opt tbl v with
    | Some i ->
        Atomic.incr hit_count;
        Mutex.unlock lock;
        i
    | None ->
        let i = Atomic.get count in
        let arr = Atomic.get rev in
        let arr =
          if i = Array.length arr then (
            let bigger = Array.make (2 * i) (Int 0) in
            Array.blit arr 0 bigger 0 i;
            Atomic.set rev bigger;
            bigger)
          else arr
        in
        arr.(i) <- v;
        H.add tbl v i;
        Atomic.set count (i + 1);
        Mutex.unlock lock;
        i

  let of_id i =
    if i < 0 || i >= Atomic.get count then
      invalid_arg (Printf.sprintf "Value.Intern.of_id: unknown id %d" i)
    else Array.unsafe_get (Atomic.get rev) i

  let compare_ids a b = if a = b then 0 else compare (of_id a) (of_id b)
  let size () = Atomic.get count

  (* One byte per id interned so far marks the ids already met, so each
     distinct id is decoded once and the values are sorted once — no
     per-occurrence set insertion on decoded values. Every id a caller
     can hold was interned before this call, hence is below [size ()]. *)
  let decode_distinct iter =
    let seen = Bytes.make (size ()) '\000' in
    let ids = ref [] in
    iter (fun i ->
        if Bytes.get seen i = '\000' then (
          Bytes.set seen i '\001';
          ids := i :: !ids));
    List.sort compare (List.rev_map of_id !ids)

  let hits () = Atomic.get hit_count
  let add_hits n = if n > 0 then ignore (Atomic.fetch_and_add hit_count n)
end

module Gen = struct
  type t = int ref

  let create () = ref 0

  let fresh g =
    let v = New !g in
    incr g;
    v

  let count g = !g
end
