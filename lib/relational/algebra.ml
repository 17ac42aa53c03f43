type cond =
  | True
  | Col_eq_col of int * int
  | Col_eq_const of int * Value.t
  | Col_lt_col of int * int
  | Not of cond
  | And of cond * cond
  | Or of cond * cond

type expr =
  | Rel of string
  | Const of Relation.t
  | Project of int list * expr
  | Select of cond * expr
  | Product of expr * expr
  | Join of (int * int) list * expr * expr
  | Union of expr * expr
  | Diff of expr * expr
  | Inter of expr * expr
  | Semijoin of (int * int) list * expr * expr
  | Antijoin of (int * int) list * expr * expr
  | Adom
  | Complement of int * expr * expr

exception Type_error of string

let rec pp_cond ppf = function
  | True -> Format.pp_print_string ppf "true"
  | Col_eq_col (i, j) -> Format.fprintf ppf "$%d = $%d" i j
  | Col_eq_const (i, v) -> Format.fprintf ppf "$%d = %a" i Value.pp v
  | Col_lt_col (i, j) -> Format.fprintf ppf "$%d < $%d" i j
  | Not c -> Format.fprintf ppf "\xc2\xac(%a)" pp_cond c
  | And (a, b) -> Format.fprintf ppf "(%a \xe2\x88\xa7 %a)" pp_cond a pp_cond b
  | Or (a, b) -> Format.fprintf ppf "(%a \xe2\x88\xa8 %a)" pp_cond a pp_cond b

let pp_pairs ppf pairs =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
    (fun ppf (i, j) -> Format.fprintf ppf "%d=%d" i j)
    ppf pairs

let rec pp ppf = function
  | Rel n -> Format.pp_print_string ppf n
  | Const r -> Format.fprintf ppf "const%a" Relation.pp r
  | Project (cols, e) ->
      Format.fprintf ppf "\xcf\x80[%a](%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
           Format.pp_print_int)
        cols pp e
  | Select (c, e) -> Format.fprintf ppf "\xcf\x83[%a](%a)" pp_cond c pp e
  | Product (l, r) -> Format.fprintf ppf "(%a \xc3\x97 %a)" pp l pp r
  | Join (pairs, l, r) ->
      Format.fprintf ppf "(%a \xe2\x8b\x88[%a] %a)" pp l pp_pairs pairs pp r
  | Union (l, r) -> Format.fprintf ppf "(%a \xe2\x88\xaa %a)" pp l pp r
  | Diff (l, r) -> Format.fprintf ppf "(%a \xe2\x88\x92 %a)" pp l pp r
  | Inter (l, r) -> Format.fprintf ppf "(%a \xe2\x88\xa9 %a)" pp l pp r
  | Semijoin (pairs, l, r) ->
      Format.fprintf ppf "(%a \xe2\x8b\x89[%a] %a)" pp l pp_pairs pairs pp r
  | Antijoin (pairs, l, r) ->
      Format.fprintf ppf "(%a \xe2\x96\xb7[%a] %a)" pp l pp_pairs pairs pp r
  | Adom -> Format.pp_print_string ppf "adom"
  | Complement (k, dom, e) ->
      Format.fprintf ppf "\xe2\x88\x81%d[%a](%a)" k pp dom pp e

(* Every type error names the offending sub-expression, so a failure
   deep inside a compiled plan is attributable without a debugger. *)
let type_error e fmt =
  Format.kasprintf
    (fun s -> raise (Type_error (Format.asprintf "%s in %a" s pp e)))
    fmt

let rec cond_max_col = function
  | True -> -1
  | Col_eq_col (i, j) | Col_lt_col (i, j) -> max i j
  | Col_eq_const (i, _) -> i
  | Not c -> cond_max_col c
  | And (a, b) | Or (a, b) -> max (cond_max_col a) (cond_max_col b)

let check_pairs err pairs al ar =
  List.iter
    (fun (i, j) ->
      if i < 0 || i >= al then
        err (Printf.sprintf "join column %d out of left range (arity %d)" i al);
      if j < 0 || j >= ar then
        err
          (Printf.sprintf "join column %d out of right range (arity %d)" j ar))
    pairs

let rec arity schema e =
  match e with
  | Rel name -> (
      match Schema.find name schema with
      | Some r -> r.Schema.arity
      | None -> type_error e "unknown relation %s" name)
  | Const r -> ( match Relation.arity r with Some a -> a | None -> 0)
  | Project (cols, e0) ->
      let a = arity schema e0 in
      List.iter
        (fun c ->
          if c < 0 || c >= a then
            type_error e "projection column %d out of range (arity %d)" c a)
        cols;
      List.length cols
  | Select (c, e0) ->
      let a = arity schema e0 in
      if cond_max_col c >= a then
        type_error e "selection column %d out of range (arity %d)"
          (cond_max_col c) a;
      a
  | Product (l, r) -> arity schema l + arity schema r
  | Join (pairs, l, r) ->
      let al = arity schema l and ar = arity schema r in
      check_pairs (fun s -> type_error e "%s" s) pairs al ar;
      al + ar
  | Semijoin (pairs, l, r) | Antijoin (pairs, l, r) ->
      let al = arity schema l and ar = arity schema r in
      check_pairs (fun s -> type_error e "%s" s) pairs al ar;
      al
  | Union (l, r) | Diff (l, r) | Inter (l, r) ->
      let al = arity schema l and ar = arity schema r in
      if al <> ar then type_error e "set operation on arities %d and %d" al ar;
      al
  | Adom -> 1
  | Complement (k, dome, e0) ->
      if k < 0 then type_error e "complement of negative arity %d" k;
      let ad = arity schema dome in
      if ad <> 1 && ad <> 0 then
        type_error e "complement domain has arity %d, expected 1" ad;
      let a0 = arity schema e0 in
      if a0 <> k then
        type_error e "complement of arity-%d operand at arity %d" a0 k;
      k

let rec holds_cond c t =
  match c with
  | True -> true
  | Col_eq_col (i, j) -> Value.equal (Tuple.get t i) (Tuple.get t j)
  | Col_eq_const (i, v) -> Value.equal (Tuple.get t i) v
  | Col_lt_col (i, j) -> Value.compare (Tuple.get t i) (Tuple.get t j) < 0
  | Not c -> not (holds_cond c t)
  | And (a, b) -> holds_cond a t && holds_cond b t
  | Or (a, b) -> holds_cond a t || holds_cond b t

(* [r]'s index on [cols], and whether it is a memo: [r]'s memoized one
   when [r] is a stored leaf and the memo is available, else built
   afresh. *)
let index_on ~trace stored r cols =
  match if stored then Relation.index ~trace r cols else None with
  | Some idx -> (true, idx)
  | None -> (false, Relation.Index.of_relation r cols)

(* Hash join on the given column pairs: whether a memoized index served
   it, and an iterator over the matching (left, right) tuple pairs.
   [stored] flags the operands that are stored leaves, whose values
   persist across executions (see {!Relation.index}). When the larger
   operand is stored and its memo is available, the smaller probes it;
   otherwise the smaller operand is indexed — from its own memo when it
   is stored — and probed with the larger. *)
let join_matches ~trace ~stored:(ls, rs) pairs left right =
  let lcols = Array.of_list (List.map fst pairs)
  and rcols = Array.of_list (List.map snd pairs) in
  let swap = Relation.cardinal left < Relation.cardinal right in
  let small, scols, s_stored, big, bcols, b_stored =
    if swap then (left, lcols, ls, right, rcols, rs)
    else (right, rcols, rs, left, lcols, ls)
  in
  match if b_stored then Relation.index ~trace big bcols else None with
  | Some idx ->
      Observe.Trace.add trace "ra.join.probes" (Relation.cardinal small);
      let find = Relation.Index.lookup idx scols in
      ( true,
        fun f ->
          Relation.unordered_iter
            (fun st ->
              Relation.Index.iter
                (fun bt -> if swap then f st bt else f bt st)
                (find st))
            small )
  | None ->
      let memoized, idx = index_on ~trace s_stored small scols in
      Observe.Trace.add trace "ra.join.probes" (Relation.cardinal big);
      let find = Relation.Index.lookup idx bcols in
      ( memoized,
        fun f ->
          Relation.unordered_iter
            (fun bt ->
              Relation.Index.iter
                (fun st -> if swap then f st bt else f bt st)
                (find bt))
            big )

(* Dense-universe variant of [join_matches] for a single-pair join whose
   indexed keys all lie below [b]: the index is a plain array, one load
   per probe instead of a hash lookup. Returns [None] (caller falls back
   to the hash join) when a key escapes the universe. *)
let dense_join_matches ~trace ~b (lc, rc) left right =
  let swap = Relation.cardinal left < Relation.cardinal right in
  let ic, pc, indexed, probed =
    if swap then (lc, rc, left, right) else (rc, lc, right, left)
  in
  let ok = ref true in
  Relation.unordered_iter (fun t -> if Tuple.id t ic >= b then ok := false)
    indexed;
  if not !ok then None
  else begin
    let index = Array.make (max b 1) [] in
    Relation.unordered_iter
      (fun t ->
        let k = Tuple.id t ic in
        index.(k) <- t :: index.(k))
      indexed;
    Observe.Trace.add trace "ra.join.probes" (Relation.cardinal probed);
    Some
      (fun f ->
        Relation.unordered_iter
          (fun pt ->
            let k = Tuple.id pt pc in
            if k < b then
              List.iter (fun it -> if swap then f it pt else f pt it) index.(k))
          probed)
  end

(* Projection fused into the join's probe loop, deduplicated into a
   {!Tuple.Set}; [cols] indexes the concatenation of left and right. The
   full-width join result is never materialized: each match's output ids
   go into one scratch buffer, and a tuple is built only for a new
   member. *)
let join_col ~al lt rt c =
  if c < al then Tuple.id lt c else Tuple.id rt (c - al)

let join_set ~trace ~stored ~al pairs cols left right =
  let memo, each = join_matches ~trace ~stored pairs left right in
  let buf = Array.make (Array.length cols) 0 in
  let set = Tuple.Set.create 64 in
  each (fun lt rt ->
      for i = 0 to Array.length cols - 1 do
        buf.(i) <- join_col ~al lt rt cols.(i)
      done;
      ignore (Tuple.Set.add_ids set buf : bool));
  (memo, set)

let equijoin ~trace ~stored ?proj pairs left right =
  match proj with
  | None ->
      (* distinct (lt, rt) pairs concatenate to distinct tuples *)
      let memo, each = join_matches ~trace ~stored pairs left right in
      let out = ref [] in
      each (fun lt rt -> out := Tuple.concat lt rt :: !out);
      (memo, Relation.of_distinct !out)
  | Some cols ->
      let al = match Relation.arity left with Some a -> a | None -> 0 in
      let memo, set = join_set ~trace ~stored ~al pairs cols left right in
      (memo, Relation.of_set set)

(* Hash semi/antijoin: keep the left tuples that do (resp. do not) find
   a match in the right side's index, the memo of a stored right operand
   when available. An empty pair list gives every right tuple the same
   empty key, so the semijoin degenerates into "left if right non-empty"
   — the compiled guard for quantifiers over variables absent from their
   body. *)
let semi ~trace ~stored ~anti pairs left right =
  let lcols = Array.of_list (List.map fst pairs)
  and rcols = Array.of_list (List.map snd pairs) in
  Observe.Trace.add trace "ra.join.probes" (Relation.cardinal left);
  let memo, idx = index_on ~trace stored right rcols in
  let find = Relation.Index.lookup idx lcols in
  ( memo,
    Relation.filter (fun lt -> Relation.Index.size (find lt) > 0 <> anti) left
  )

let adom_rel inst =
  Relation.of_distinct
    (List.map (fun v -> Tuple.of_list [ v ]) (Instance.adom inst))

(* [identity_pairs pairs k]: the pairs equate column i with column i for
   every i < k — the join key is the whole tuple on both sides, so semi-
   and antijoins of arity-k operands degenerate to set operations. *)
let identity_pairs pairs k =
  List.length pairs = k
  && List.for_all (fun (i, j) -> i = j) pairs
  && List.sort_uniq Int.compare (List.map fst pairs) = List.init k Fun.id

let dom_id_array dom =
  Array.of_list (Relation.fold (fun t acc -> Tuple.id t 0 :: acc) dom [])

(* Binary complements over a small id universe skip hash probing
   entirely: members mark a [b × b] bitset (a few KB — it stays in
   cache), candidates test one bit each. [mark] receives the setter;
   ids outside the universe can never be dom² candidates and are
   ignored. *)
let dense_bound = 4096

let complement2_bitset ~ids ~b ~mark =
  let bits = Bytes.make ((b * b) / 8 + 1) '\000' in
  let set x y =
    if x < b && y < b then (
      let i = (x * b) + y in
      Bytes.unsafe_set bits (i lsr 3)
        (Char.unsafe_chr
           (Char.code (Bytes.unsafe_get bits (i lsr 3)) lor (1 lsl (i land 7)))))
  in
  mark set;
  let out = ref [] in
  Array.iter
    (fun x ->
      Array.iter
        (fun y ->
          let i = (x * b) + y in
          if
            Char.code (Bytes.unsafe_get bits (i lsr 3)) land (1 lsl (i land 7))
            = 0
          then out := Tuple.of_ids [| x; y |] :: !out)
        ids)
    ids;
  Relation.of_distinct !out

(* dom^k minus a membership predicate, enumerated with a reusable id
   buffer and one probe per candidate — never materializing dom^k when
   the predicate already covers it. *)
let complement_probe k dom pred =
  let ids = dom_id_array dom in
  let n = Array.length ids in
  if k > 0 && n = 0 then Relation.empty
  else
    let buf = Array.make k 0 in
    let out = ref [] in
    let rec fill pos =
      if pos = k then (
        if not (pred buf) then out := Tuple.of_ids buf :: !out)
      else
        for i = 0 to n - 1 do
          buf.(pos) <- ids.(i);
          fill (pos + 1)
        done
    in
    fill 0;
    Relation.of_distinct !out

(* Compose a chain of projections into a single column list over the
   first non-projection operand, validating each step. *)
let rec flatten_project orig cols e0 =
  match e0 with
  | Project (inner, e1) ->
      let n = List.length inner in
      List.iter
        (fun c ->
          if c < 0 || c >= n then
            type_error orig "projection column %d out of range (arity %d)" c n)
        cols;
      flatten_project orig (List.map (List.nth inner) cols) e1
  | _ -> (cols, e0)

let check_proj_cols orig cols a =
  List.iter
    (fun c ->
      if c < 0 || c >= a then
        type_error orig "projection column %d out of range (arity %d)" c a)
    cols

(* [e] as a (flattened) projection over a join with [k] output columns —
   the shape the complement fusion in [eval] evaluates without ever
   building the join's result relation. *)
let projected_join e k =
  match e with
  | Project (pcols, p0) -> (
      match flatten_project e pcols p0 with
      | cols, (Join (pairs, l, r) as j) when List.length cols = k ->
          Some (cols, j, pairs, l, r)
      | _ -> None)
  | _ -> None

(* --- per-operator profiles ------------------------------------------- *)

(* Profiles key on *physical* node identity: a memoized plan is a fixed
   tree, so [==] distinguishes occurrences that are structurally equal
   but sit at different plan positions, while a shared sub-expression
   (e.g. the compiler's one domain expression) accumulates across all
   its parents. [Hashtbl.hash] is structural but bounded, giving a
   stable bucket; [==] resolves collisions. *)
module NodeTbl = Hashtbl.Make (struct
  type t = expr

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type mstats = {
  mutable m_execs : int;
  mutable m_rows_in : int;
  mutable m_rows_out : int;
  mutable m_self : float;
  mutable m_total : float;
}

(* One frame per in-flight profiled node: accumulates the wall time and
   output rows of its *direct* children, so self = total − children and
   rows_in = rows produced into this node during its execution. Fused
   operators (a projection evaluated inside a join's probe loop, a
   complement probed against a join's dedup set) never execute as nodes,
   so their time and rows roll up into the fusing parent — the profile
   reports what actually ran. *)
type frame = { mutable f_child : float; mutable f_rows : int }

(* Per join/semijoin/antijoin node, fused or not: executions, and those
   a memoized index served. *)
type mcount = { mutable runs : int; mutable memo_runs : int }

type profile = {
  nodes : mstats NodeTbl.t;
  memo : mcount NodeTbl.t;
  mutable pstack : frame list;
}

type node_stats = {
  execs : int;
  rows_in : int;
  rows_out : int;
  self_ns : int;
  total_ns : int;
}

let profile () =
  { nodes = NodeTbl.create 64; memo = NodeTbl.create 16; pstack = [] }

let profile_stats p e =
  Option.map
    (fun m ->
      {
        execs = m.m_execs;
        rows_in = m.m_rows_in;
        rows_out = m.m_rows_out;
        self_ns = int_of_float (m.m_self *. 1e9);
        total_ns = int_of_float (m.m_total *. 1e9);
      })
    (NodeTbl.find_opt p.nodes e)

let profile_memo p e =
  Option.map (fun m -> (m.memo_runs, m.runs)) (NodeTbl.find_opt p.memo e)

let is_stored = function Rel _ -> true | _ -> false

let eval ?(trace = Observe.Trace.null) ?profile:prof inst e =
  (* record whether a join-like node's execution probed a memo; returns
     its result *)
  let noted node (memo, r) =
    (match prof with
    | None -> ()
    | Some p ->
        let m =
          match NodeTbl.find_opt p.memo node with
          | Some m -> m
          | None ->
              let m = { runs = 0; memo_runs = 0 } in
              NodeTbl.add p.memo node m;
              m
        in
        m.runs <- m.runs + 1;
        if memo then m.memo_runs <- m.memo_runs + 1);
    r
  in
  let rec ev e =
    match prof with
    | None -> ev_node e
    | Some p ->
        let fr = { f_child = 0.; f_rows = 0 } in
        let t0 = Observe.Trace.now () in
        p.pstack <- fr :: p.pstack;
        let r =
          try ev_node e
          with ex ->
            (match p.pstack with _ :: tl -> p.pstack <- tl | [] -> ());
            raise ex
        in
        let total = Observe.Trace.now () -. t0 in
        (match p.pstack with _ :: tl -> p.pstack <- tl | [] -> ());
        let rows = Relation.cardinal r in
        (match p.pstack with
        | parent :: _ ->
            parent.f_child <- parent.f_child +. total;
            parent.f_rows <- parent.f_rows + rows
        | [] -> ());
        let m =
          match NodeTbl.find_opt p.nodes e with
          | Some m -> m
          | None ->
              let m =
                {
                  m_execs = 0;
                  m_rows_in = 0;
                  m_rows_out = 0;
                  m_self = 0.;
                  m_total = 0.;
                }
              in
              NodeTbl.add p.nodes e m;
              m
        in
        m.m_execs <- m.m_execs + 1;
        m.m_rows_in <- m.m_rows_in + fr.f_rows;
        m.m_rows_out <- m.m_rows_out + rows;
        m.m_total <- m.m_total +. total;
        m.m_self <- m.m_self +. (total -. fr.f_child);
        r
  and ev_node e =
    match e with
    | Rel name -> Instance.find name inst
    | Const r -> r
    | Project (cols, e0) -> ev_project e cols e0
    | Select (c, e0) -> Relation.filter (holds_cond c) (ev e0)
    | Product (l, r) -> (
        let rl = ev l and rr = ev r in
        match (Relation.arity rl, Relation.arity rr) with
        | None, _ | _, None -> Relation.empty
        | Some 0, _ -> rr (* {()} × r = r *)
        | _, Some 0 -> rl
        | Some _, Some _ ->
            let out = ref [] in
            Relation.unordered_iter
              (fun lt ->
                Relation.unordered_iter
                  (fun rt -> out := Tuple.concat lt rt :: !out)
                  rr)
              rl;
            Relation.of_distinct !out)
    | Join (pairs, l, r) ->
        noted e
          (equijoin ~trace ~stored:(is_stored l, is_stored r) pairs (ev l)
             (ev r))
    | Semijoin (pairs, l, r) -> (
        let rl = ev l and rr = ev r in
        match (Relation.arity rl, Relation.arity rr) with
        | Some k, Some kr when kr = k && identity_pairs pairs k ->
            Relation.inter rl rr
        | _ ->
            noted e (semi ~trace ~stored:(is_stored r) ~anti:false pairs rl rr))
    | Antijoin (pairs, (Complement (k, dome, e0) as c), r)
      when identity_pairs pairs k -> (
        (* (dom^k − e) ▷ r over all columns is dom^k − (e ∪ r): one probe
           pass emitting only the surviving tuples, never the complement.
           When r is a projected join, the probe hits the join's dedup
           set directly and the join result relation is never built. *)
        let base = ev e0 in
        (match Relation.arity base with
        | Some a when a <> k ->
            type_error c "complement of arity-%d operand at arity %d" a k
        | _ -> ());
        match projected_join r k with
        | Some (cols, j, jpairs, jl, jr) -> (
            let stored = (is_stored jl, is_stored jr) in
            let rl = ev jl and rr = ev jr in
            match (Relation.arity rl, Relation.arity rr) with
            | Some al, Some ar -> (
                check_proj_cols r cols (al + ar);
                let dom = ev_dom c dome in
                let ids = dom_id_array dom in
                let b = Array.fold_left max (-1) ids + 1 in
                let cols = Array.of_list cols in
                if k = 2 && b <= dense_bound then (
                  let c0 = cols.(0) and c1 = cols.(1) in
                  complement2_bitset ~ids ~b ~mark:(fun set ->
                      Relation.unordered_iter
                        (fun t -> set (Tuple.id t 0) (Tuple.id t 1))
                        base;
                      let each =
                        noted j
                          (match jpairs with
                          | [ pair ] -> (
                              match dense_join_matches ~trace ~b pair rl rr with
                              | Some each -> (false, each)
                              | None ->
                                  join_matches ~trace ~stored jpairs rl rr)
                          | _ -> join_matches ~trace ~stored jpairs rl rr)
                      in
                      each (fun lt rt ->
                          set (join_col ~al lt rt c0) (join_col ~al lt rt c1))))
                else
                  let set =
                    noted j (join_set ~trace ~stored ~al jpairs cols rl rr)
                  in
                  complement_probe k dom (fun buf ->
                      Relation.mem_ids buf base || Tuple.Set.mem set buf))
            | _ -> ev_complement c k dome base (* empty join *))
        | None -> (
            let rr = ev r in
            match Relation.arity rr with
            | None -> ev_complement c k dome base
            | Some a when a = k ->
                ev_complement_probe c k dome (fun buf ->
                    Relation.mem_ids buf base || Relation.mem_ids buf rr)
            | Some _ ->
                noted e
                  (semi ~trace ~stored:(is_stored r) ~anti:true pairs
                     (ev_complement c k dome base) rr)))
    | Antijoin (pairs, l, r) -> (
        let rl = ev l and rr = ev r in
        match (Relation.arity rl, Relation.arity rr) with
        | Some k, Some kr when kr = k && identity_pairs pairs k ->
            Relation.diff rl rr
        | _ ->
            noted e (semi ~trace ~stored:(is_stored r) ~anti:true pairs rl rr))
    | Union (l, r) -> Relation.union (ev l) (ev r)
    | Diff (l, r) -> Relation.diff (ev l) (ev r)
    | Inter (l, r) -> Relation.inter (ev l) (ev r)
    | Adom -> adom_rel inst
    | Complement (k, dome, e0) -> ev_complement e k dome (ev e0)
  and ev_dom orig dome =
    let dom = ev dome in
    (match Relation.arity dom with
    | Some a when a <> 1 ->
        type_error orig "complement domain has arity %d, expected 1" a
    | _ -> ());
    dom
  and ev_complement_probe orig k dome pred =
    complement_probe k (ev_dom orig dome) pred
  and ev_complement orig k dome r =
    let dom = ev_dom orig dome in
    (match Relation.arity r with
    | Some a when a <> k ->
        type_error orig "complement of arity-%d operand at arity %d" a k
    | _ -> ());
    complement_probe k dom (fun buf -> Relation.mem_ids buf r)
  (* Projection, normalized before evaluation: chains compose into one
     column list, and a projection over a join runs fused inside the
     probe loop — the full-width join result is never built. *)
  and ev_project orig cols e0 =
    let cols, e0 = flatten_project orig cols e0 in
    match e0 with
    | Join (pairs, l, r) -> (
        let rl = ev l and rr = ev r in
        match (Relation.arity rl, Relation.arity rr) with
        | Some al, Some ar ->
            check_proj_cols orig cols (al + ar);
            noted e0
              (equijoin ~trace ~stored:(is_stored l, is_stored r)
                 ~proj:(Array.of_list cols) pairs rl rr)
        | _ -> Relation.empty)
    | _ ->
        let r = ev e0 in
        (match Relation.arity r with
        | Some a ->
            check_proj_cols orig cols a;
            if cols = List.init a Fun.id then r (* identity *)
            else
              let cols = Array.of_list cols in
              let buf = Array.make (Array.length cols) 0 in
              let set = Tuple.Set.create (Relation.cardinal r) in
              Relation.unordered_iter
                (fun t ->
                  for i = 0 to Array.length cols - 1 do
                    buf.(i) <- Tuple.id t cols.(i)
                  done;
                  ignore (Tuple.Set.add_ids set buf : bool))
                r;
              Relation.of_set set
        | None -> Relation.empty)
  in
  ev e
