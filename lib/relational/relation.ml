(* Little-endian Patricia trie keyed by tuple hash (Okasaki & Gill).
   Canonical for a given key set, so structure never depends on insertion
   order; persistent, so [Instance] snapshots stay cheap. Each key maps
   to the (tiny) bucket of tuples sharing that hash. *)
module Imap = struct
  type 'a t =
    | Empty
    | Leaf of int * 'a
    | Branch of int * int * 'a t * 'a t
        (* Branch (prefix, mask, t0, t1): keys in [t0] have the mask bit
           clear; [prefix] is the keys' common low bits below the mask. *)

  let zero_bit k m = k land m = 0
  let mask k m = k land (m - 1)
  let match_prefix k p m = mask k m = p
  let lowest_bit x = x land -x
  let branching_bit p0 p1 = lowest_bit (p0 lxor p1)

  let join p0 t0 p1 t1 =
    let m = branching_bit p0 p1 in
    if zero_bit p0 m then Branch (mask p0 m, m, t0, t1)
    else Branch (mask p0 m, m, t1, t0)

  let rec find_opt k = function
    | Empty -> None
    | Leaf (j, x) -> if j = k then Some x else None
    | Branch (p, m, t0, t1) ->
        if not (match_prefix k p m) then None
        else if zero_bit k m then find_opt k t0
        else find_opt k t1

  let rec add k x = function
    | Empty -> Leaf (k, x)
    | Leaf (j, _) as t ->
        if j = k then Leaf (k, x) else join k (Leaf (k, x)) j t
    | Branch (p, m, t0, t1) as t ->
        if match_prefix k p m then
          if zero_bit k m then Branch (p, m, add k x t0, t1)
          else Branch (p, m, t0, add k x t1)
        else join k (Leaf (k, x)) p t

  let branch p m t0 t1 =
    match (t0, t1) with Empty, t | t, Empty -> t | _ -> Branch (p, m, t0, t1)

  let rec remove k = function
    | Empty -> Empty
    | Leaf (j, _) as t -> if j = k then Empty else t
    | Branch (p, m, t0, t1) as t ->
        if not (match_prefix k p m) then t
        else if zero_bit k m then branch p m (remove k t0) t1
        else branch p m t0 (remove k t1)

  let rec fold f t acc =
    match t with
    | Empty -> acc
    | Leaf (k, x) -> f k x acc
    | Branch (_, _, t0, t1) -> fold f t1 (fold f t0 acc)

  let rec add_with f k x = function
    | Empty -> Leaf (k, x)
    | Leaf (j, y) as t ->
        if j = k then Leaf (k, f x y) else join k (Leaf (k, x)) j t
    | Branch (p, m, t0, t1) as t ->
        if match_prefix k p m then
          if zero_bit k m then Branch (p, m, add_with f k x t0, t1)
          else Branch (p, m, t0, add_with f k x t1)
        else join k (Leaf (k, x)) p t

  (* Structural merge (Okasaki & Gill): disjoint subtrees are shared, not
     re-inserted leaf by leaf; [f] combines the two values at colliding
     keys (left argument from the left trie). *)
  let rec merge f s t =
    match (s, t) with
    | Empty, t -> t
    | s, Empty -> s
    | Leaf (k, x), t -> add_with f k x t
    | s, Leaf (k, x) -> add_with (fun a b -> f b a) k x s
    | Branch (p, m, s0, s1), Branch (q, n, t0, t1) ->
        if m = n && p = q then Branch (p, m, merge f s0 t0, merge f s1 t1)
        else if m < n && match_prefix q p m then
          if zero_bit q m then Branch (p, m, merge f s0 t, s1)
          else Branch (p, m, s0, merge f s1 t)
        else if m > n && match_prefix p q n then
          if zero_bit p n then Branch (q, n, merge f s t0, t1)
          else Branch (q, n, t0, merge f s t1)
        else join p s q t
end

(* A join index on a column set: key -> the tuples carrying it. One-
   and two-column keys are packed ints, other keys id vectors (the empty
   key, the full scan, among them). *)
type table =
  | Packed of Tuple.t list Tuple.ITbl.t
  | Keyed of Tuple.t list Tuple.KTbl.t

type index = { cols : int array; table : table }

(* Per column set: [Marked] after the first request, [Built] after the
   second (see [index]). *)
type slot = Marked | Built of index

(* The backing store. [Trie] is the canonical hash trie. [Loaded] is a
   relation straight from the fact loader, or one a [Matcher.Db]
   published: its rows, pairwise distinct, and the set of them.
   Membership reads the set, enumeration reads the rows, and the first
   trie operation ([add]/[remove]/[union]) builds the trie and replaces
   the representation with one pointer store, so a domain reading
   concurrently sees either the rows or a complete trie. *)
type repr =
  | Trie of Tuple.t list Imap.t
  | Loaded of Tuple.t list * Tuple.Set.t

type t = {
  mutable repr : repr;
  card : int;
  ar : int;  (** tuple arity; meaningful only when [card > 0] *)
  mutable sorted : Tuple.t list option;
      (** memoized order-on-demand view: every observer that can leak an
          order (printing, folds, element lists) reads the tuples in
          {!Tuple.compare} order, so output stays byte-identical to the
          former [Set.Make (Tuple)] backing *)
  mutable memos : (int array * slot) list Atomic.t option;
      (** memoized join indexes, keyed by column set; the cell is
          allocated on the first request *)
}

let empty =
  { repr = Trie Imap.Empty; card = 0; ar = 0; sorted = Some []; memos = None }

(* A new relation value: no sorted view, no memos yet. *)
let make buckets card ar =
  { repr = Trie buckets; card; ar; sorted = None; memos = None }

let check_homogeneous ts =
  match ts with
  | [] | [ _ ] -> ()
  | t :: rest ->
      let a = Tuple.arity t in
      if List.exists (fun u -> Tuple.arity u <> a) rest then
        invalid_arg "Relation: arity mismatch"

(* Bulk build from tuples known pairwise distinct: sort by hash to group
   collision buckets, then construct the (canonical, so identical to what
   repeated [add]s would produce) Patricia trie top-down by in-place
   partition on the branching bit — allocating exactly the final nodes
   instead of one root-to-leaf path copy per insertion. *)
(* Sort tuples by their cached hash through a parallel int-key array: the
   comparisons read a contiguous int array instead of chasing a pointer
   per element, which dominates bulk construction at scale. Hashes are
   avalanche-mixed (see {!Tuple.hash_ids}), so median-of-3 pivots face no
   adversarial orderings. *)
let sort_by_hash arr =
  let n = Array.length arr in
  let hs = Array.make n 0 in
  for i = 0 to n - 1 do
    hs.(i) <- Tuple.hash (Array.unsafe_get arr i)
  done;
  let swap i j =
    if i <> j then (
      let th = hs.(i) in
      hs.(i) <- hs.(j);
      hs.(j) <- th;
      let tt = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tt)
  in
  (* [lo, hi) *)
  let rec qs lo hi =
    if hi - lo <= 16 then
      for i = lo + 1 to hi - 1 do
        let h = hs.(i) and t = arr.(i) in
        let j = ref i in
        while !j > lo && hs.(!j - 1) > h do
          hs.(!j) <- hs.(!j - 1);
          arr.(!j) <- arr.(!j - 1);
          decr j
        done;
        hs.(!j) <- h;
        arr.(!j) <- t
      done
    else begin
      let mid = lo + ((hi - lo) / 2) in
      (* median of three into position [lo] *)
      if hs.(mid) < hs.(lo) then swap mid lo;
      if hs.(hi - 1) < hs.(lo) then swap (hi - 1) lo;
      if hs.(hi - 1) < hs.(mid) then swap (hi - 1) mid;
      let p = hs.(mid) in
      let i = ref lo and j = ref (hi - 1) in
      while !i <= !j do
        while hs.(!i) < p do
          incr i
        done;
        while hs.(!j) > p do
          decr j
        done;
        if !i <= !j then (
          swap !i !j;
          incr i;
          decr j)
      done;
      qs lo (!j + 1);
      qs !i hi
    end
  in
  qs 0 n

let trie_of_distinct ts =
  let arr = Array.of_list ts in
  let n = Array.length arr in
  sort_by_hash arr;
  let keys = Array.make n 0 and buckets = Array.make n [] in
  let m = ref 0 in
  Array.iter
    (fun t ->
      let h = Tuple.hash t in
      if !m > 0 && keys.(!m - 1) = h then
        buckets.(!m - 1) <- t :: buckets.(!m - 1)
      else (
        keys.(!m) <- h;
        buckets.(!m) <- [ t ];
        incr m))
    arr;
  (* [lo, hi): at least one key, all agreeing below their lowest
     differing bit *)
  let rec build lo hi =
    if hi - lo = 1 then Imap.Leaf (keys.(lo), buckets.(lo))
    else
      let k0 = keys.(lo) in
      let d = ref 0 in
      for i = lo + 1 to hi - 1 do
        d := !d lor (keys.(i) lxor k0)
      done;
      let bm = Imap.lowest_bit !d in
      let i = ref lo and j = ref (hi - 1) in
      while !i < !j do
        if keys.(!i) land bm = 0 then incr i
        else if keys.(!j) land bm <> 0 then decr j
        else (
          let tk = keys.(!i) in
          keys.(!i) <- keys.(!j);
          keys.(!j) <- tk;
          let tb = buckets.(!i) in
          buckets.(!i) <- buckets.(!j);
          buckets.(!j) <- tb)
      done;
      let mid = if keys.(!i) land bm = 0 then !i + 1 else !i in
      Imap.Branch (Imap.mask k0 bm, bm, build lo mid, build mid hi)
  in
  if n = 0 then Imap.Empty else build 0 !m

let of_distinct ts =
  match ts with
  | [] -> empty
  | t0 :: _ ->
      check_homogeneous ts;
      make (trie_of_distinct ts) (List.length ts) (Tuple.arity t0)

let of_loaded rows set =
  match rows with
  | [] -> empty
  | t0 :: _ ->
      {
        repr = Loaded (rows, set);
        card = Tuple.Set.length set;
        ar = Tuple.arity t0;
        sorted = None;
        memos = None;
      }

let loaded_set r =
  match r.repr with Loaded (_, set) -> Some set | Trie _ -> None

(* The trie, built from the loaded rows on first use. Two domains forcing
   at once each build the same canonical trie; either store wins.

   The trie holds the rows themselves, the tuples a Db's membership set
   and indexes already hold, so no fact is kept twice. They sit in
   memory in load (or derivation) order, not the trie's hash order, so
   a walk over the trie reads them out of address order. *)
let trie r =
  match r.repr with
  | Trie b -> b
  | Loaded (rows, _) ->
      let b = trie_of_distinct rows in
      r.repr <- Trie b;
      b

let raw_fold f r acc =
  match r.repr with
  | Trie b ->
      Imap.fold
        (fun _ bucket acc -> List.fold_left (fun a t -> f t a) acc bucket)
        b acc
  | Loaded (rows, _) -> List.fold_left (fun a t -> f t a) acc rows

let to_list r =
  match r.sorted with
  | Some l -> l
  | None ->
      let l = Tuple.rank_sort Tuple.ids (raw_fold (fun t l -> t :: l) r []) in
      r.sorted <- Some l;
      l

(* Rebuild from a list known to be sorted and duplicate-free: the sorted
   view comes for free. *)
let of_sorted _ar l =
  let r = of_distinct l in
  r.sorted <- Some l;
  r

let check_arity r t =
  if r.card > 0 && Tuple.arity t <> r.ar then
    invalid_arg
      (Printf.sprintf
         "Relation: arity mismatch (relation has arity %d, tuple has %d)" r.ar
         (Tuple.arity t))

let mem t r =
  match r.repr with
  | Trie b -> (
      match Imap.find_opt (Tuple.hash t) b with
      | None -> false
      | Some bucket -> List.exists (Tuple.equal t) bucket)
  | Loaded (_, set) -> Tuple.Set.mem set (Tuple.ids t)

let mem_ids ids r =
  match r.repr with
  | Trie b -> (
      match Imap.find_opt (Tuple.hash_ids ids) b with
      | None -> false
      | Some bucket -> List.exists (fun u -> Tuple.equal_ids u ids) bucket)
  | Loaded (_, set) -> Tuple.Set.mem set ids

let add t r =
  check_arity r t;
  let h = Tuple.hash t in
  let dup = ref false in
  let buckets =
    Imap.add_with
      (fun _new old ->
        if List.exists (Tuple.equal t) old then (
          dup := true;
          old)
        else t :: old)
      h [ t ] (trie r)
  in
  if !dup then r
  else make buckets (r.card + 1) (Tuple.arity t)

let singleton t = add t empty

let of_list ts =
  check_homogeneous ts;
  List.fold_left (fun r t -> add t r) empty ts

let add_all ts r =
  check_homogeneous ts;
  List.fold_left (fun r t -> add t r) r ts

let of_rows rows = of_list (List.map Tuple.of_list rows)

let remove t r =
  let h = Tuple.hash t in
  let b = trie r in
  match Imap.find_opt h b with
  | None -> r
  | Some bucket ->
      if not (List.exists (Tuple.equal t) bucket) then r
      else
        let bucket' = List.filter (fun u -> not (Tuple.equal u t)) bucket in
        let buckets =
          if bucket' = [] then Imap.remove h b else Imap.add h bucket' b
        in
        make buckets (r.card - 1) r.ar

let cardinal r = r.card
let is_empty r = r.card = 0
let arity r = if r.card = 0 then None else Some r.ar

let subset a b =
  a.card <= b.card && raw_fold (fun t ok -> ok && mem t b) a true

let equal a b = a == b || (a.card = b.card && subset a b)

let union a b =
  if a.card > 0 && b.card > 0 && a.ar <> b.ar then
    invalid_arg "Relation.union: arity mismatch";
  if a.card = 0 then b
  else if b.card = 0 then a
  else
    (* structural trie merge: disjoint subtrees are shared wholesale;
       only hash-colliding buckets are combined element by element *)
    let dups = ref 0 in
    let merge_buckets ba bb =
      List.fold_left
        (fun acc t ->
          if List.exists (Tuple.equal t) bb then (
            incr dups;
            acc)
          else t :: acc)
        bb ba
    in
    let buckets = Imap.merge merge_buckets (trie a) (trie b) in
    make buckets (a.card + b.card - !dups) a.ar

let inter a b =
  if a.card = 0 || b.card = 0 then empty
  else
    let small, big = if a.card <= b.card then (a, b) else (b, a) in
    raw_fold (fun t r -> if mem t big then add t r else r) small empty

let diff a b =
  if a.card = 0 || b.card = 0 then a
  else raw_fold (fun t r -> if mem t b then r else add t r) a empty

(* Total order consistent with [equal]: lexicographic over the sorted
   element sequences, exactly the order [Set.Make(Tuple).compare]
   exposed. *)
let compare a b =
  if a == b then 0 else List.compare Tuple.compare (to_list a) (to_list b)

let fold f r acc = List.fold_left (fun acc t -> f t acc) acc (to_list r)
let iter f r = List.iter f (to_list r)
let unordered_fold = raw_fold
let unordered_iter f r = raw_fold (fun t () -> f t) r ()
let filter p r = of_sorted r.ar (List.filter p (to_list r))
let exists p r = List.exists p (to_list r)
let for_all p r = List.for_all p (to_list r)
let map f r = fold (fun t acc -> add (f t) acc) r empty
let elements = to_list

let choose_opt r =
  match r.sorted with
  | Some [] -> None
  | Some (t :: _) -> Some t
  | None ->
      (* minimum element, matching [Set.choose_opt], without forcing the
         full sorted view *)
      raw_fold
        (fun t best ->
          match best with
          | Some u when Tuple.compare u t <= 0 -> best
          | _ -> Some t)
        r None

let iter_ids f r = raw_fold (fun t () -> Array.iter f (Tuple.ids t)) r ()
let values r = Value.Intern.decode_distinct (fun f -> iter_ids f r)

(* --- join indexes --------------------------------------------------- *)

(* bucket operations, one instance per table kind *)
module Buckets (H : Hashtbl.S) = struct
  let find tbl k = try H.find tbl k with Not_found -> []
  let add tbl k t = H.replace tbl k (t :: find tbl k)

  let remove tbl k t =
    match List.filter (fun u -> not (Tuple.equal u t)) (find tbl k) with
    | [] -> H.remove tbl k
    | b -> H.replace tbl k b
end

module PB = Buckets (Tuple.ITbl)
module KB = Buckets (Tuple.KTbl)

module Index = struct
  type t = index

  (* sized for [n] keys; the empty key has one *)
  let create cols n =
    let n = if Array.length cols = 0 then 1 else max 16 n in
    let packs =
      Tuple.can_pack && (Array.length cols = 1 || Array.length cols = 2)
    in
    {
      cols;
      table =
        (if packs then Packed (Tuple.ITbl.create n)
         else Keyed (Tuple.KTbl.create n));
    }

  (* one id, or two packed into one int *)
  let packed_key cols t =
    if Array.length cols = 1 then Tuple.id t cols.(0)
    else Tuple.pack2 (Tuple.id t cols.(0)) (Tuple.id t cols.(1))

  let add ix t =
    match ix.table with
    | Packed tbl -> PB.add tbl (packed_key ix.cols t) t
    | Keyed tbl -> KB.add tbl (Array.map (Tuple.id t) ix.cols) t

  let remove ix t =
    match ix.table with
    | Packed tbl -> PB.remove tbl (packed_key ix.cols t) t
    | Keyed tbl -> KB.remove tbl (Array.map (Tuple.id t) ix.cols) t

  let of_list cols ts =
    let ix = create cols (List.length ts) in
    List.iter (add ix) ts;
    ix

  let of_relation r cols =
    let ix = create cols r.card in
    unordered_iter (add ix) r;
    ix

  let find ix key =
    match ix.table with
    | Packed tbl when Array.length ix.cols = 1 -> PB.find tbl (key 0)
    | Packed tbl -> PB.find tbl (Tuple.pack2 (key 0) (key 1))
    | Keyed tbl -> KB.find tbl (Array.init (Array.length ix.cols) key)

  let lookup ix cols t = find ix (fun j -> Tuple.id t (Array.unsafe_get cols j))
end

let rec update cell f =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (f old)) then update cell f

(* The second-probe rule: a value asked once on [cols] is only marked,
   so a relation rebuilt every round (an IDB, a delta) never pays for an
   index it will not reuse; the second request builds and publishes it.
   Relations are persistent — every update returns a record without
   memos — so an index can never go stale. Concurrent requests (several
   domains evaluating over a shared instance) are safe: a built table
   is only read after publication through the atomic cell, and a lost
   race costs a mark or a rebuild, never a wrong answer. *)
let index ?(trace = Observe.Trace.null) r cols =
  let cell =
    match r.memos with
    | Some c -> c
    | None ->
        let c = Atomic.make [] in
        r.memos <- Some c;
        c
  in
  match List.assoc_opt cols (Atomic.get cell) with
  | Some (Built idx) ->
      Observe.Trace.incr trace "ra.index.hits";
      Some idx
  | Some Marked ->
      let idx = Index.of_relation r cols in
      update cell (fun s -> (cols, Built idx) :: List.remove_assoc cols s);
      Observe.Trace.incr trace "ra.index.builds";
      Some idx
  | None ->
      update cell (fun s ->
          if List.mem_assoc cols s then s else (cols, Marked) :: s);
      None

let pp ppf r =
  Format.fprintf ppf "{@[<hov>%a@]}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       Tuple.pp)
    (to_list r)

let to_string r = Format.asprintf "%a" pp r
