module SMap = Map.Make (String)
module VSet = Set.Make (Value)

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
let add_all name tups i = set name (Relation.add_all tups (find name i)) i
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
      let s =
        SMap.fold
          (fun _ r acc ->
            List.fold_left
              (fun acc v -> VSet.add v acc)
              acc (Relation.values r))
          i.rels VSet.empty
      in
      let vs = VSet.elements s in
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

let pp ppf i =
  let first = ref true in
  SMap.iter
    (fun name r ->
      Relation.iter
        (fun t ->
          if !first then first := false else Format.fprintf ppf "@\n";
          Format.fprintf ppf "%s(%a)." name
            (Format.pp_print_list
               ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
               Value.pp)
            (Tuple.to_list t))
        r)
    i.rels

let to_string i = Format.asprintf "%a" pp i

(* --- fact parsing ------------------------------------------------------ *)

let parse_one_fact lineno stmt i =
  let stmt = String.trim stmt in
  if stmt = "" then i
  else
    let fail msg = failwith (Printf.sprintf "facts line %d: %s" lineno msg) in
    match String.index_opt stmt '(' with
    | None -> fail (Printf.sprintf "expected pred(args), got %S" stmt)
    | Some lp ->
        if stmt.[String.length stmt - 1] <> ')' then
          fail "expected closing parenthesis";
        let name = String.trim (String.sub stmt 0 lp) in
        if name = "" then fail "empty predicate name";
        let inside = String.sub stmt (lp + 1) (String.length stmt - lp - 2) in
        let args =
          if String.trim inside = "" then []
          else
            String.split_on_char ',' inside
            |> List.map (fun s ->
                   let s = String.trim s in
                   if s = "" then fail "empty argument";
                   match Value.parse s with
                   | v -> v
                   | exception Invalid_argument msg -> fail msg)
        in
        let r = find name i in
        (match Relation.arity r with
        | Some a when a <> List.length args ->
            fail
              (Printf.sprintf "%s has arity %d, got %d argument(s)" name a
                 (List.length args))
        | _ -> ());
        set name (Relation.add (Tuple.of_list args) r) i

(* Split the text into dot-terminated statements, respecting quoted
   strings: a '.' inside "..." does not terminate a fact, and a '%' or
   "//" inside "..." does not start a comment — comment detection shares
   the string-state scan instead of running per line up front. *)
let parse_facts text =
  let lines = String.split_on_char '\n' text in
  let buf = Buffer.create 64 in
  let inst = ref empty in
  let in_string = ref false in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      let n = String.length line in
      let i = ref 0 in
      let in_comment = ref false in
      while (not !in_comment) && !i < n do
        let c = line.[!i] in
        if !in_string then (
          Buffer.add_char buf c;
          if c = '"' then in_string := false)
        else if c = '%' || (c = '/' && !i + 1 < n && line.[!i + 1] = '/') then
          in_comment := true
        else if c = '"' then (
          Buffer.add_char buf c;
          in_string := true)
        else if c = '.' then (
          inst := parse_one_fact lineno (Buffer.contents buf) !inst;
          Buffer.clear buf)
        else Buffer.add_char buf c;
        incr i
      done;
      Buffer.add_char buf ' ')
    lines;
  (if String.trim (Buffer.contents buf) <> "" then
     let n = List.length lines in
     inst := parse_one_fact n (Buffer.contents buf) !inst);
  !inst
