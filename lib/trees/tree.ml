open Relational

type t = { label : string; children : t list }

let node label children = { label; children }
let leaf label = { label; children = [] }

let rec size t = 1 + List.fold_left (fun acc c -> acc + size c) 0 t.children

(* --- parsing ------------------------------------------------------------- *)

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = failwith (Printf.sprintf "Tree.parse at %d: %s" !pos msg) in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t') do
      incr pos
    done
  in
  let ident () =
    skip_ws ();
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true
      | _ -> false
    do
      incr pos
    done;
    if !pos = start then fail "expected a label";
    String.sub s start (!pos - start)
  in
  let rec tree () =
    let label = ident () in
    skip_ws ();
    if !pos < n && s.[!pos] = '(' then (
      incr pos;
      skip_ws ();
      if !pos < n && s.[!pos] = ')' then (
        incr pos;
        { label; children = [] })
      else
        let rec children acc =
          let c = tree () in
          skip_ws ();
          if !pos < n && s.[!pos] = ',' then (
            incr pos;
            children (c :: acc))
          else if !pos < n && s.[!pos] = ')' then (
            incr pos;
            List.rev (c :: acc))
          else fail "expected , or )"
        in
        { label; children = children [] })
    else { label; children = [] }
  in
  let t = tree () in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  t

let rec to_string t =
  match t.children with
  | [] -> t.label
  | cs ->
      Printf.sprintf "%s(%s)" t.label
        (String.concat ", " (List.map to_string cs))

(* --- relational encoding --------------------------------------------------- *)

type itree = Inode of string * string * itree list
(* (preorder id, label, children) *)

let assign_ids t =
  let counter = ref 0 in
  let rec go t =
    let id = Printf.sprintf "n%d" !counter in
    incr counter;
    let children = List.map go t.children in
    Inode (id, t.label, children)
  in
  go t

let node_ids t =
  let rec flatten (Inode (id, label, children)) =
    (id, label) :: List.concat_map flatten children
  in
  flatten (assign_ids t)

let to_instance t =
  let open Value in
  let v s = Sym s in
  let facts = ref [] in
  let add pred args = facts := (pred, List.map v args) :: !facts in
  let iid (Inode (i, _, _)) = i in
  let rec go (Inode (id, label, children)) =
    add ("label_" ^ label) [ id ];
    add "lab" [ id; label ];
    (match children with
    | [] -> add "leaf" [ id ]
    | first :: _ ->
        add "firstchild" [ id; iid first ];
        let rec last = function [ x ] -> x | _ :: t -> last t | [] -> first in
        add "lastchild" [ id; iid (last children) ];
        List.iter (fun c -> add "child" [ id; iid c ]) children;
        let rec siblings = function
          | a :: (b :: _ as rest) ->
              add "nextsibling" [ iid a; iid b ];
              siblings rest
          | _ -> ()
        in
        siblings children);
    List.iter go children
  in
  let root = assign_ids t in
  add "root" [ iid root ];
  go root;
  let db = Datalog.Matcher.Db.of_instance Instance.empty in
  List.iter
    (fun (pred, args) ->
      ignore (Datalog.Matcher.Db.insert db pred (Tuple.of_list args)))
    !facts;
  Datalog.Matcher.Db.instance db

let is_monadic p =
  let schema = Datalog.Ast.infer_schema p in
  List.for_all
    (fun q ->
      match Relational.Schema.find q schema with
      | Some r -> r.Relational.Schema.arity = 1
      | None -> true)
    (Datalog.Ast.idb p)

let select p t pred =
  let inst = to_instance t in
  let result =
    if Datalog.Stratify.is_stratifiable p then
      (Datalog.Stratified.eval p inst).Datalog.Stratified.instance
    else (Datalog.Inflationary.eval p inst).Datalog.Inflationary.instance
  in
  let selected = Instance.find pred result in
  List.filter
    (fun (id, _) ->
      Relation.mem (Tuple.of_list [ Value.Sym id ]) selected)
    (node_ids t)

let random ~seed ~depth ~width ~labels =
  let rng = Random.State.make [| seed |] in
  let label () = List.nth labels (Random.State.int rng (List.length labels)) in
  let rec go d =
    let n_children =
      if d >= depth then 0 else Random.State.int rng (width + 1)
    in
    { label = label (); children = List.init n_children (fun _ -> go (d + 1)) }
  in
  go 0
