(* A join index on a column set: key -> the bucket of tuples carrying
   it. One- and two-column keys are packed ints, other keys id vectors
   (the empty key, the full scan, among them). A bucket is a growable
   vector: its tuples in [tups.(0 .. len - 1)], read from the top down,
   so newest first until a removal, which moves the top tuple into the
   hole. *)
type bucket = { mutable len : int; mutable tups : Tuple.t array }

type table = Packed of bucket Tuple.ITbl.t | Keyed of bucket Tuple.KTbl.t

type index = { cols : int array; table : table }

(* Per column set: [Marked] after the first request, [Built] after the
   second (see [index]). *)
type slot = Marked | Built of index

(* A relation is a frozen tuple set. [set] is never written once the
   value exists (a [Matcher.Db] that shares it copies it before writing),
   and its order is settled when the value is made, so the value never
   changes and several domains may read it at once. The unordered
   enumerations walk the set's order: the order its tuples were added
   in, so an index build walks the tuples in load (or derivation) order.

   Walking that order rather than the slots is for locality. The slots
   follow the hash, so walking them visits tuples in an order unrelated
   to where they sit in the heap; the order follows build order, which
   for loaded facts is allocation order, so neighbouring tuples are read
   together. Building social-ingest's three join indexes walking the
   slots took 46-58 ms (the [index] span total of [--stats]); walking
   build order took 15-16 ms (five alternating runs each, pinned to one
   core). *)
type t = {
  set : Tuple.Set.t;
  ar : int;  (** tuple arity; meaningful only when the set is non-empty *)
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
  { set = Tuple.Set.create 0; ar = 0; sorted = Some []; memos = None }

let of_set set =
  match Tuple.Set.choose set with
  | None -> empty
  | Some t0 -> { set; ar = Tuple.arity t0; sorted = None; memos = None }

let set r = r.set

let check_homogeneous ts =
  match ts with
  | [] | [ _ ] -> ()
  | t :: rest ->
      let a = Tuple.arity t in
      if List.exists (fun u -> Tuple.arity u <> a) rest then
        invalid_arg "Relation: arity mismatch"

(* the set of [ts], in their order *)
let set_of ts =
  check_homogeneous ts;
  let set = Tuple.Set.create (List.length ts) in
  List.iter (fun t -> ignore (Tuple.Set.add set t)) ts;
  set

let of_list ts = of_set (set_of ts)

let of_distinct ts =
  let set = set_of ts in
  if Tuple.Set.length set < List.length ts then
    invalid_arg "Relation.of_distinct: repeated tuple";
  of_set set

let singleton t = of_distinct [ t ]
let of_rows rows = of_list (List.map Tuple.of_list rows)

let to_list r =
  match r.sorted with
  | Some l -> l
  | None ->
      let l = Tuple.rank_sort r.ar Tuple.unsafe_id (Tuple.Set.to_list r.set) in
      r.sorted <- Some l;
      l

let cardinal r = Tuple.Set.length r.set
let is_empty r = cardinal r = 0
let arity r = if is_empty r then None else Some r.ar
let mem t r = Tuple.Set.mem_tuple r.set t
let mem_ids ids r = Tuple.Set.mem r.set ids

let check_arity r t =
  if (not (is_empty r)) && Tuple.arity t <> r.ar then
    invalid_arg
      (Printf.sprintf
         "Relation: arity mismatch (relation has arity %d, tuple has %d)" r.ar
         (Tuple.arity t))

(* One-off edits: each copies the set. *)
let add t r =
  check_arity r t;
  if mem t r then r
  else
    let set = Tuple.Set.copy r.set in
    ignore (Tuple.Set.add set t);
    of_set set

let remove t r =
  if not (mem t r) then r
  else
    let set = Tuple.Set.copy r.set in
    ignore (Tuple.Set.remove set t : Tuple.t option);
    of_set set

let unordered_fold f r acc = Tuple.Set.fold f r.set acc
let unordered_iter f r = Tuple.Set.iter f r.set

let subset a b =
  cardinal a <= cardinal b && unordered_fold (fun t ok -> ok && mem t b) a true

let equal a b = a == b || (cardinal a = cardinal b && subset a b)

(* the larger operand's set, copied once, takes the smaller's tuples *)
let union a b =
  if (not (is_empty a)) && (not (is_empty b)) && a.ar <> b.ar then
    invalid_arg "Relation.union: arity mismatch";
  if is_empty a then b
  else if is_empty b then a
  else
    let big, small = if cardinal a >= cardinal b then (a, b) else (b, a) in
    let set = Tuple.Set.copy big.set in
    unordered_iter (fun t -> ignore (Tuple.Set.add set t)) small;
    of_set set

(* the tuples of [a] that [keep] accepts *)
let select keep a =
  let set = Tuple.Set.create 0 in
  unordered_iter (fun t -> if keep t then ignore (Tuple.Set.add set t)) a;
  of_set set

let inter a b =
  let small, big = if cardinal a <= cardinal b then (a, b) else (b, a) in
  select (fun t -> mem t big) small

let diff a b =
  if is_empty a || is_empty b then a else select (fun t -> not (mem t b)) a

(* Total order consistent with [equal]: lexicographic over the sorted
   element sequences, exactly the order [Set.Make(Tuple).compare]
   exposed. *)
let compare a b =
  if a == b then 0 else List.compare Tuple.compare (to_list a) (to_list b)

let fold f r acc = List.fold_left (fun acc t -> f t acc) acc (to_list r)
let iter f r = List.iter f (to_list r)

(* a sub-list of the sorted view is sorted: it is the new value's view *)
let filter p r =
  let l = List.filter p (to_list r) in
  let r' = of_distinct l in
  if r'.sorted = None then r'.sorted <- Some l;
  r'

let exists p r = List.exists p (to_list r)
let for_all p r = List.for_all p (to_list r)
let map f r = of_list (unordered_fold (fun t acc -> f t :: acc) r [])
let elements = to_list

let choose_opt r =
  match r.sorted with
  | Some [] -> None
  | Some (t :: _) -> Some t
  | None ->
      (* minimum element, matching [Set.choose_opt], without forcing the
         full sorted view *)
      unordered_fold
        (fun t best ->
          match best with
          | Some u when Tuple.compare u t <= 0 -> best
          | _ -> Some t)
        r None

let iter_ids f r =
  unordered_iter
    (fun t ->
      for i = 0 to r.ar - 1 do
        f (Tuple.unsafe_id t i)
      done)
    r

let values r = Value.Intern.decode_distinct (fun f -> iter_ids f r)

(* --- join indexes --------------------------------------------------- *)

module Bucket = struct
  let create () = { len = 0; tups = [||] }

  (* the answer for a key without tuples; never written *)
  let empty = create ()

  (* the filler of the slots above [len], so a removed tuple is not kept
     alive *)
  let gap = Tuple.of_ids [||]

  let push b t =
    let n = b.len in
    if n = Array.length b.tups then (
      let tups = Array.make (max 4 (2 * n)) gap in
      Array.blit b.tups 0 tups 0 n;
      b.tups <- tups);
    Array.unsafe_set b.tups n t;
    b.len <- n + 1

  (* Scan from the newest down for [t] itself (the index holds its
     store's own tuples), move the top tuple into its slot and free the
     top. Tuples filling under a quarter of the array move into one
     twice their number, so a removal allocates only when it shrinks
     the bucket. *)
  let remove b t =
    let tups = b.tups in
    let i = ref (b.len - 1) in
    while !i >= 0 && Array.unsafe_get tups !i != t do
      decr i
    done;
    if !i >= 0 then (
      let top = b.len - 1 in
      Array.unsafe_set tups !i (Array.unsafe_get tups top);
      Array.unsafe_set tups top gap;
      b.len <- top;
      if 4 * top < Array.length tups then b.tups <- Array.sub tups 0 (2 * top))

  let iter f b =
    let tups = b.tups in
    for i = b.len - 1 downto 0 do
      f (Array.unsafe_get tups i)
    done

  let to_list b =
    let l = ref [] in
    for i = 0 to b.len - 1 do
      l := Array.unsafe_get b.tups i :: !l
    done;
    !l
end

(* bucket tables, one instance per table kind *)
module Buckets (H : Hashtbl.S) = struct
  let find tbl k = try H.find tbl k with Not_found -> Bucket.empty

  (* one probe when [k] has a bucket *)
  let add tbl k t =
    match H.find tbl k with
    | b -> Bucket.push b t
    | exception Not_found ->
        let b = Bucket.create () in
        Bucket.push b t;
        H.add tbl k b

  let remove tbl k t =
    match H.find tbl k with
    | b ->
        Bucket.remove b t;
        if b.len = 0 then H.remove tbl k
    | exception Not_found -> ()
end

module PB = Buckets (Tuple.ITbl)
module KB = Buckets (Tuple.KTbl)

module Index = struct
  type t = index
  type nonrec bucket = bucket

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

  let of_set cols set =
    let ix = create cols (Tuple.Set.length set) in
    Tuple.Set.iter (add ix) set;
    ix

  let of_relation r cols = of_set cols r.set

  let find ix key =
    match ix.table with
    | Packed tbl when Array.length ix.cols = 1 -> PB.find tbl (key 0)
    | Packed tbl -> PB.find tbl (Tuple.pack2 (key 0) (key 1))
    | Keyed tbl -> KB.find tbl (Array.init (Array.length ix.cols) key)

  let lookup ix cols t = find ix (fun j -> Tuple.id t (Array.unsafe_get cols j))
  let size b = b.len
  let iter = Bucket.iter
  let to_list = Bucket.to_list
end

let rec update cell f =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (f old)) then update cell f

(* The second-probe rule: a value asked once on [cols] is only marked,
   so a relation rebuilt every round (an IDB, a delta) never pays for an
   index it will not reuse; the second request builds and publishes it.
   Relations are immutable — every update returns a record without
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
