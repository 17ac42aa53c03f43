(* A tuple is a flat array of interned value ids plus its precomputed
   hash: equality is int-array comparison, hashing is a field read, and
   the constant's structure is only revisited when a component is decoded
   back to a [Value.t]. *)

type t = { ids : int array; h : int }

(* Avalanching mix (FxHash-style): interned ids are dense small ints, so
   a plain [h*31 + id] polynomial leaves almost all entropy in a few low
   bits' worth of range — 79k two-column tuples over 300 constants would
   share ~10k hash values, degrading every hash structure into long
   collision chains. The multiply spreads each id across the word; the
   xor-shift folds the high bits back down so the low bits (table
   masks) are well distributed too. *)
let hash_ids ids =
  let n = Array.length ids in
  let h = ref (n + 0x9E3779B9) in
  for i = 0 to n - 1 do
    let x = (!h lxor Array.unsafe_get ids i) * 0x9E3779B1 in
    h := x lxor (x lsr 29)
  done;
  !h land max_int

let of_ids ids = { ids; h = hash_ids ids }

(* [a] and [b] agree on positions [i .. n - 1]. A top-level function of
   all it reads: a local recursive loop would allocate a closure on every
   comparison. *)
let rec same_from (a : int array) b i n =
  i = n
  || (Array.unsafe_get a i = Array.unsafe_get b i && same_from a b (i + 1) n)

let same_ids a b =
  let n = Array.length a in
  n = Array.length b && same_from a b 0 n

let equal_ids t ids = same_ids t.ids ids

(* Hash tables keyed by interned ids: [KTbl] by id vectors (join keys,
   projected valuations), [ITbl] by one int — a single id, or a pair
   packed by [pack2]. Interned ids are dense table indices far below
   2^31, so a pair packs reversibly into one int on 64-bit hosts: no
   array allocation per probe. *)
module KTbl = Hashtbl.Make (struct
  type t = int array

  let equal = same_ids
  let hash = hash_ids
end)

let hash_int x =
  let h = x * 0x9E3779B1 in
  (h lxor (h lsr 29)) land max_int

module ITbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = hash_int
end)

(* A set of tuples by linear probing over one slot array, kept at most
   half full; [absent] marks a free slot. A probe compares the stored
   tuple's cached hash before its ids. Removal shifts the rest of the
   probe run back into the hole, so no slot is ever a tombstone. *)
module Set = struct
  type tuple = t
  type nonrec t = { mutable slots : tuple array; mutable count : int }

  (* no real tuple carries a negative hash, so no probe ever matches it *)
  let absent = { ids = [||]; h = -1 }

  let create n =
    let rec pow2 k = if k >= 2 * n then k else pow2 (2 * k) in
    { slots = Array.make (pow2 8) absent; count = 0 }

  let length s = s.count
  let copy s = { slots = Array.copy s.slots; count = s.count }
  let iter f s = Array.iter (fun x -> if x != absent then f x) s.slots

  (* The probe loops are top-level functions of all they read, so that
     no call allocates a closure. *)

  (* the slot holding a tuple with [ids] (hash [h]), or the free slot
     ending its probe run, from slot [i] on *)
  let rec probe slots mask ids h i =
    let x = Array.unsafe_get slots i in
    if x == absent || (x.h = h && equal_ids x ids) then i
    else probe slots mask ids h ((i + 1) land mask)

  let slot slots ids h =
    let mask = Array.length slots - 1 in
    probe slots mask ids h (h land mask)

  let find_opt s ids =
    let x = Array.unsafe_get s.slots (slot s.slots ids (hash_ids ids)) in
    if x == absent then None else Some x

  let mem s ids =
    Array.unsafe_get s.slots (slot s.slots ids (hash_ids ids)) != absent

  let rec free slots mask i =
    if Array.unsafe_get slots i == absent then i
    else free slots mask ((i + 1) land mask)

  (* the tuples of [old] are distinct: each goes to the first free slot
     from its home, compared with none of the tuples already moved *)
  let grow s =
    let old = s.slots in
    let slots = Array.make (2 * Array.length old) absent in
    let mask = Array.length slots - 1 in
    for i = 0 to Array.length old - 1 do
      let x = Array.unsafe_get old i in
      if x != absent then
        Array.unsafe_set slots (free slots mask (x.h land mask)) x
    done;
    s.slots <- slots

  let add s x =
    let i = slot s.slots x.ids x.h in
    if Array.unsafe_get s.slots i != absent then false
    else (
      s.count <- s.count + 1;
      if 2 * s.count <= Array.length s.slots then
        Array.unsafe_set s.slots i x
      else (
        grow s;
        Array.unsafe_set s.slots (slot s.slots x.ids x.h) x);
      true)

  (* [hole] is free; [j] walks the rest of its probe run. A tuple whose
     home slot lies cyclically in (hole, j] stays, any other moves into
     the hole, which moves to [j]. *)
  let rec shift slots mask hole j =
    let j = (j + 1) land mask in
    let y = Array.unsafe_get slots j in
    if y == absent then Array.unsafe_set slots hole absent
    else
      let k = y.h land mask in
      let stays =
        if hole <= j then hole < k && k <= j else hole < k || k <= j
      in
      if stays then shift slots mask hole j
      else (
        Array.unsafe_set slots hole y;
        shift slots mask j j)

  let remove s x =
    let slots = s.slots in
    let hole = slot slots x.ids x.h in
    if Array.unsafe_get slots hole == absent then false
    else (
      shift slots (Array.length slots - 1) hole hole;
      s.count <- s.count - 1;
      true)
end

let can_pack = Sys.int_size >= 63
let pack2 a b = (a lsl 31) lor b
let unpack2 k = [| k lsr 31; k land 0x7FFFFFFF |]

let make vs = of_ids (Array.map Value.Intern.id vs)
let of_list vs = of_ids (Array.of_list (List.map Value.Intern.id vs))
let to_list t = List.map Value.Intern.of_id (Array.to_list t.ids)
let arity t = Array.length t.ids
let ids t = t.ids

let id t i =
  if i < 0 || i >= Array.length t.ids then
    invalid_arg
      (Printf.sprintf "Tuple.get: index %d out of bounds (arity %d)" i
         (Array.length t.ids))
  else Array.unsafe_get t.ids i

let get t i = Value.Intern.of_id (id t i)

(* lexicographic value order of two id vectors of one length *)
let compare_vectors a b =
  let n = Array.length a in
  let rec go i =
    if i = n then 0
    else
      let c =
        Value.Intern.compare_ids (Array.unsafe_get a i) (Array.unsafe_get b i)
      in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let compare a b =
  let la = Array.length a.ids and lb = Array.length b.ids in
  if la <> lb then Int.compare la lb else compare_vectors a.ids b.ids

let equal a b = a == b || (a.h = b.h && same_ids a.ids b.ids)

let hash t = t.h
let project t cols = of_ids (Array.of_list (List.map (fun i -> id t i) cols))
let concat a b = of_ids (Array.append a.ids b.ids)
let values t = Array.map Value.Intern.of_id t.ids
let exists p t = Array.exists (fun i -> p (Value.Intern.of_id i)) t.ids
let rename t perm = of_ids (Array.map (fun i -> id t i) perm)

let render_args dialect b t =
  Array.iteri
    (fun i id ->
      if i > 0 then Buffer.add_string b ", ";
      Value.render dialect b (Value.Intern.of_id id))
    t.ids

let render_fact dialect b pred t =
  Buffer.add_string b pred;
  Buffer.add_char b '(';
  render_args dialect b t;
  Buffer.add_string b ")."

let fact_to_string dialect pred t =
  let b = Buffer.create 32 in
  render_fact dialect b pred t;
  Buffer.contents b

let to_string t =
  let b = Buffer.create 32 in
  Buffer.add_char b '(';
  render_args Value.Fact b t;
  Buffer.add_char b ')';
  Buffer.contents b

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* Dense numbering of the distinct ids among [m] occurrences, in
   first-seen order: an open-addressing table of numbers ([-1] when
   free) at most half full, over [met], number -> id. Both are sized by
   [m], never by the intern table. *)
type numbering = { cells : int array; met : int array; mutable count : int }

let numbering m =
  let rec pow2 k = if k >= 2 * m then k else pow2 (2 * k) in
  { cells = Array.make (pow2 16) (-1); met = Array.make m 0; count = 0 }

let rec probe t id h =
  let s = Array.unsafe_get t.cells h in
  if s < 0 || Array.unsafe_get t.met s = id then h
  else probe t id ((h + 1) land (Array.length t.cells - 1))

let number t id =
  let h = probe t id (hash_int id land (Array.length t.cells - 1)) in
  let s = Array.unsafe_get t.cells h in
  if s >= 0 then s
  else
    let s = t.count in
    t.met.(s) <- id;
    t.cells.(h) <- s;
    t.count <- s + 1;
    s

(* Below this length, a comparison sort that decodes ids in every
   comparison beats numbering and ranking them: on lists whose values
   barely repeat, ranking sorts about as many values as there are
   elements. *)
let short = 128

(* [rank_sort key xs]: each distinct id is numbered ([numbering]), the
   numbered values are sorted once, and each number is replaced by its
   value-order rank; a stable counting sort per column, last column
   first, then orders the rank rows. *)
let rank_sort key xs =
  match xs with
  | [] | [ _ ] -> xs
  | x :: _ ->
      let ar = Array.length (key x) in
      let ids y =
        let v = key y in
        if Array.length v <> ar then
          invalid_arg "Tuple.rank_sort: id vectors of different lengths";
        v
      in
      if List.compare_length_with xs short < 0 then
        List.stable_sort (fun a b -> compare_vectors (ids a) (ids b)) xs
      else
        let items = Array.of_list xs in
        let n = Array.length items in
        let numbers = numbering (n * ar) in
        let rows = Array.make (n * ar) 0 in
        Array.iteri
          (fun i it ->
            let v = ids it in
            for c = 0 to ar - 1 do
              rows.((i * ar) + c) <- number numbers (Array.unsafe_get v c)
            done)
          items;
        let d = numbers.count in
        let vals = Array.init d (fun j -> Value.Intern.of_id numbers.met.(j)) in
        let rank = Array.make d 0 in
        List.iteri
          (fun r s -> rank.(s) <- r)
          (List.sort
             (fun a b -> Value.compare vals.(a) vals.(b))
             (List.init d Fun.id));
        Array.iteri (fun j s -> rows.(j) <- rank.(s)) rows;
        let order = ref (Array.init n Fun.id) and next = ref (Array.make n 0) in
        let count = Array.make (d + 1) 0 in
        for c = ar - 1 downto 0 do
          Array.fill count 0 (d + 1) 0;
          for i = 0 to n - 1 do
            let r = rows.((i * ar) + c) in
            count.(r + 1) <- count.(r + 1) + 1
          done;
          for r = 1 to d do
            count.(r) <- count.(r) + count.(r - 1)
          done;
          let src = !order and dst = !next in
          for k = 0 to n - 1 do
            let i = src.(k) in
            let r = rows.((i * ar) + c) in
            dst.(count.(r)) <- i;
            count.(r) <- count.(r) + 1
          done;
          order := dst;
          next := src
        done;
        Array.fold_right (fun i acc -> items.(i) :: acc) !order []
