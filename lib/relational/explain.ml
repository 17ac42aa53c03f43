module A = Algebra
module Json = Observe.Json

let op_name = function
  | A.Rel _ -> "scan"
  | A.Const _ -> "const"
  | A.Project _ -> "project"
  | A.Select _ -> "select"
  | A.Product _ -> "product"
  | A.Join _ -> "join"
  | A.Union _ -> "union"
  | A.Diff _ -> "diff"
  | A.Inter _ -> "inter"
  | A.Semijoin _ -> "semijoin"
  | A.Antijoin _ -> "antijoin"
  | A.Adom -> "adom"
  | A.Complement _ -> "complement"

let pairs_str pairs =
  String.concat ","
    (List.map (fun (i, j) -> Printf.sprintf "%d=%d" i j) pairs)

let cols_str cols = String.concat "," (List.map string_of_int cols)

(* The operator's own argument — join keys, projection columns, the
   selection condition — never its operands. *)
let detail = function
  | A.Rel name -> Some name
  | A.Const r -> Some (Printf.sprintf "%d tuples" (Relation.cardinal r))
  | A.Project (cols, _) -> Some (cols_str cols)
  | A.Select (c, _) -> Some (Format.asprintf "%a" A.pp_cond c)
  | A.Product _ | A.Union _ | A.Diff _ | A.Inter _ | A.Adom -> None
  | A.Join (pairs, _, _) | A.Semijoin (pairs, _, _) | A.Antijoin (pairs, _, _)
    ->
      Some (pairs_str pairs)
  | A.Complement (k, _, _) -> Some (Printf.sprintf "arity %d" k)

let children = function
  | A.Rel _ | A.Const _ | A.Adom -> []
  | A.Project (_, e) | A.Select (_, e) -> [ e ]
  | A.Product (l, r)
  | A.Join (_, l, r)
  | A.Union (l, r)
  | A.Diff (l, r)
  | A.Inter (l, r)
  | A.Semijoin (_, l, r)
  | A.Antijoin (_, l, r)
  | A.Complement (_, l, r) ->
      [ l; r ]

(* Cold shape: output arity when the schema determines it, and for base
   scans the current cardinality of the stored relation. *)
let node_arity schema e =
  match schema with
  | None -> None
  | Some s -> ( try Some (A.arity s e) with A.Type_error _ -> None)

let scan_rows inst e =
  match (inst, e) with
  | Some inst, A.Rel name -> Some (Relation.cardinal (Instance.find name inst))
  | _ -> None

let ms_of_ns n = float_of_int n /. 1e6

let selectivity (st : A.node_stats) =
  if st.A.rows_in > 0 then
    Some (float_of_int st.A.rows_out /. float_of_int st.A.rows_in)
  else None

(* --- text rendering --------------------------------------------------- *)

let node_line buf ?inst ?profile ~schema ~indent e =
  Buffer.add_string buf (String.make (2 * indent) ' ');
  Buffer.add_string buf (op_name e);
  (match detail e with
  | Some d ->
      Buffer.add_char buf '[';
      Buffer.add_string buf d;
      Buffer.add_char buf ']'
  | None -> ());
  (match node_arity schema e with
  | Some a -> Buffer.add_string buf (Printf.sprintf " arity=%d" a)
  | None -> ());
  (match Option.bind profile (fun p -> A.profile_stats p e) with
  | Some st ->
      Buffer.add_string buf
        (Printf.sprintf " rows_out=%d rows_in=%d execs=%d" st.A.rows_out
           st.A.rows_in st.A.execs);
      (match selectivity st with
      | Some s -> Buffer.add_string buf (Printf.sprintf " sel=%.2f" s)
      | None -> ());
      Buffer.add_string buf
        (Printf.sprintf " self=%.2f ms total=%.2f ms" (ms_of_ns st.A.self_ns)
           (ms_of_ns st.A.total_ns))
  | None -> (
      (* cold: no execution recorded — report stored size where known *)
      match scan_rows inst e with
      | Some n -> Buffer.add_string buf (Printf.sprintf " rows=%d" n)
      | None -> ()));
  (match Option.bind profile (fun p -> A.profile_memo p e) with
  | Some (memo, runs) ->
      Buffer.add_string buf (Printf.sprintf " memo=%d/%d" memo runs)
  | None -> ());
  Buffer.add_char buf '\n'

let text ?inst ?profile e =
  let schema = Option.map Instance.schema inst in
  let buf = Buffer.create 256 in
  let rec go indent e =
    node_line buf ?inst ?profile ~schema ~indent e;
    List.iter (go (indent + 1)) (children e)
  in
  go 0 e;
  Buffer.contents buf

(* --- JSON rendering --------------------------------------------------- *)

let json ?inst ?profile e =
  let schema = Option.map Instance.schema inst in
  let rec go e =
    let base = [ ("op", Json.Str (op_name e)) ] in
    let base =
      match detail e with
      | Some d -> base @ [ ("detail", Json.Str d) ]
      | None -> base
    in
    let base =
      match node_arity schema e with
      | Some a -> base @ [ ("arity", Json.Int a) ]
      | None -> base
    in
    let base =
      match scan_rows inst e with
      | Some n -> base @ [ ("rows", Json.Int n) ]
      | None -> base
    in
    let base =
      match Option.bind profile (fun p -> A.profile_stats p e) with
      | Some st ->
          base
          @ [
              ( "profile",
                Json.Obj
                  ([
                     ("execs", Json.Int st.A.execs);
                     ("rows_in", Json.Int st.A.rows_in);
                     ("rows_out", Json.Int st.A.rows_out);
                     ("self_ns", Json.Int st.A.self_ns);
                     ("total_ns", Json.Int st.A.total_ns);
                   ]
                  @
                  match selectivity st with
                  | Some s -> [ ("selectivity", Json.Float s) ]
                  | None -> []) );
            ]
      | None -> base
    in
    let base =
      match Option.bind profile (fun p -> A.profile_memo p e) with
      | Some (memo, runs) ->
          base
          @ [
              ( "memo",
                Json.Obj
                  [ ("runs", Json.Int runs); ("memo_runs", Json.Int memo) ] );
            ]
      | None -> base
    in
    match children e with
    | [] -> Json.Obj base
    | cs -> Json.Obj (base @ [ ("children", Json.List (List.map go cs)) ])
  in
  go e
