(* A tuple is one flat int array: its interned value ids, then their
   hash, [| id0; ...; id(k-1); hash |]. Equality is int comparison,
   hashing is a read of the last slot, and the constant's structure is
   only revisited when a component is decoded back to a [Value.t]. One
   block per fact: a probe reads the hash and the ids from the same
   cache lines, and a 2-ary fact is 4 words (header included). *)

type t = int array

(* Avalanching mix (FxHash-style): interned ids are dense small ints, so
   a plain [h*31 + id] polynomial leaves almost all entropy in a few low
   bits' worth of range — 79k two-column tuples over 300 constants would
   share ~10k hash values, degrading every hash structure into long
   collision chains. The multiply spreads each id across the word; the
   xor-shift folds the high bits back down so the low bits (table
   masks) are well distributed too. [hash_prefix ids n] hashes
   [ids.(0 .. n - 1)]. *)
let hash_prefix ids n =
  let h = ref (n + 0x9E3779B9) in
  for i = 0 to n - 1 do
    let x = (!h lxor Array.unsafe_get ids i) * 0x9E3779B1 in
    h := x lxor (x lsr 29)
  done;
  !h land max_int

let hash_ids ids = hash_prefix ids (Array.length ids)
let arity t = Array.length t - 1
let hash t = Array.unsafe_get t (Array.length t - 1)

(* One allocation: the common arities are array literals, allocated in
   line; wider tuples are filled in place. [h] is the ids' hash. *)
let build ids n h =
  match n with
  | 0 -> [| h |]
  | 1 -> [| Array.unsafe_get ids 0; h |]
  | 2 -> [| Array.unsafe_get ids 0; Array.unsafe_get ids 1; h |]
  | 3 ->
      let a = Array.unsafe_get ids 0 and b = Array.unsafe_get ids 1 in
      [| a; b; Array.unsafe_get ids 2; h |]
  | _ ->
      let t = Array.make (n + 1) h in
      for i = 0 to n - 1 do
        Array.unsafe_set t i (Array.unsafe_get ids i)
      done;
      t

let of_prefix ids n =
  if n < 0 || n > Array.length ids then invalid_arg "Tuple.of_prefix";
  build ids n (hash_prefix ids n)

let of_ids ids = of_prefix ids (Array.length ids)
let of_hashed ids h = build ids (Array.length ids) h
let ids t = Array.sub t 0 (arity t)
let unsafe_id t i = Array.unsafe_get t i

(* [a] and [b] agree on positions [i .. n - 1]. A top-level function of
   all it reads: a local recursive loop would allocate a closure on every
   comparison. *)
let rec same_from (a : int array) (b : int array) i n =
  i = n
  || (Array.unsafe_get a i = Array.unsafe_get b i && same_from a b (i + 1) n)

let same_ids a b =
  let n = Array.length a in
  n = Array.length b && same_from a b 0 n

(* hash first: a mismatch is almost always decided there *)
let equal a b =
  a == b
  ||
  let n = Array.length a in
  n = Array.length b
  && Array.unsafe_get a (n - 1) = Array.unsafe_get b (n - 1)
  && same_from a b 0 (n - 1)

(* Hash tables keyed by interned ids: [KTbl] by id vectors (join keys
   of three or more columns, [Annot_eval]'s fact numbering), [ITbl] by
   one int — a single id, or a pair packed by [pack2]. Interned ids are
   dense table indices far below 2^31, so distinct pairs pack into
   distinct ints on 64-bit hosts: no array allocation per probe. *)
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
   tuple's hash before its ids, both read from the tuple's one block.
   Removal shifts the rest of the probe run back into the hole, so no
   slot is ever a tombstone.

   Beside the slots, [order.(0 .. count - 1)] holds the members in the
   order they were added, for walks in build order: [add] appends, and
   the array doubles from what the set holds, never from [create]'s
   estimate. [remove] drops the order, so that it keeps no removed tuple
   alive: an order shorter than [count] is stale, [add] leaves it so,
   and the next ordered read rebuilds it from the slots ([settle]). *)
module Set = struct
  type tuple = t

  type nonrec t = {
    mutable slots : tuple array;
    mutable count : int;
    mutable order : tuple array;
  }

  (* a free slot; probes test for it by address before reading a slot,
     and its hash, -1, is no real tuple's *)
  let absent : tuple = [| -1 |]

  let create n =
    let rec pow2 k = if k >= 2 * n then k else pow2 (2 * k) in
    { slots = Array.make (pow2 8) absent; count = 0; order = [||] }

  let length s = s.count

  let copy s =
    {
      slots = Array.copy s.slots;
      count = s.count;
      order = Array.sub s.order 0 (min s.count (Array.length s.order));
    }

  (* the members in slot order, as the order of a set a removal left
     stale, in a fresh array: a write over a tuple of a major-heap array
     costs the write barrier's darkening of the tuple it replaces, a
     write over [absent] does not *)
  let settle s =
    if Array.length s.order < s.count then (
      let order = Array.make s.count absent in
      let slots = s.slots and k = ref 0 in
      for i = 0 to Array.length slots - 1 do
        let x = Array.unsafe_get slots i in
        if x != absent then (
          Array.unsafe_set order !k x;
          incr k)
      done;
      s.order <- order)

  let iter f s =
    settle s;
    let order = s.order in
    for i = 0 to s.count - 1 do
      f (Array.unsafe_get order i)
    done

  let fold f s acc =
    settle s;
    let acc = ref acc in
    for i = 0 to s.count - 1 do
      acc := f (Array.unsafe_get s.order i) !acc
    done;
    !acc

  let to_list s =
    settle s;
    let l = ref [] in
    for i = s.count - 1 downto 0 do
      l := Array.unsafe_get s.order i :: !l
    done;
    !l

  let choose s =
    settle s;
    if s.count = 0 then None else Some (Array.unsafe_get s.order 0)

  (* The probe loops are top-level functions of all they read, so that
     no call allocates a closure. *)

  (* the slot holding the tuple with the [n] ids [ids] (hash [h]), or
     the free slot ending its probe run, from slot [i] on *)
  let rec probe slots mask ids n h i =
    let x = Array.unsafe_get slots i in
    if
      x == absent
      || hash x = h
         && Array.length x = n + 1
         && same_from x ids 0 n
    then i
    else probe slots mask ids n h ((i + 1) land mask)

  let slot_hashed slots ids h =
    let mask = Array.length slots - 1 in
    probe slots mask ids (Array.length ids) h (h land mask)

  let slot slots ids = slot_hashed slots ids (hash_ids ids)

  (* the same for the tuple [t], by its stored hash *)
  let rec probe_tuple slots mask t i =
    let x = Array.unsafe_get slots i in
    if x == absent || equal x t then i
    else probe_tuple slots mask t ((i + 1) land mask)

  let slot_tuple slots t =
    let mask = Array.length slots - 1 in
    probe_tuple slots mask t (hash t land mask)

  let find_opt s ids =
    let x = Array.unsafe_get s.slots (slot s.slots ids) in
    if x == absent then None else Some x

  let mem s ids = Array.unsafe_get s.slots (slot s.slots ids) != absent

  let mem_hashed s ids h =
    Array.unsafe_get s.slots (slot_hashed s.slots ids h) != absent

  let mem_tuple s t =
    Array.unsafe_get s.slots (slot_tuple s.slots t) != absent

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
        Array.unsafe_set slots (free slots mask (hash x land mask)) x
    done;
    s.slots <- slots

  (* [x] is the [n]th member in order, unless the order is stale *)
  let append s x n =
    let cap = Array.length s.order in
    if n = cap then (
      let order = Array.make (max 8 (2 * n)) absent in
      Array.blit s.order 0 order 0 n;
      s.order <- order);
    if n <= cap then Array.unsafe_set s.order n x

  (* [x] is new, and [i] the free slot its probe run ended in *)
  let insert s x i =
    append s x s.count;
    s.count <- s.count + 1;
    if 2 * s.count <= Array.length s.slots then Array.unsafe_set s.slots i x
    else (
      grow s;
      Array.unsafe_set s.slots (slot_tuple s.slots x) x)

  let add s x =
    let i = slot_tuple s.slots x in
    Array.unsafe_get s.slots i == absent
    && (insert s x i;
        true)

  let add_ids s ids =
    let h = hash_ids ids in
    let i = slot_hashed s.slots ids h in
    Array.unsafe_get s.slots i == absent
    && (insert s (of_hashed ids h) i;
        true)

  (* [hole] is free; [j] walks the rest of its probe run. A tuple whose
     home slot lies cyclically in (hole, j] stays, any other moves into
     the hole, which moves to [j]. *)
  let rec shift slots mask hole j =
    let j = (j + 1) land mask in
    let y = Array.unsafe_get slots j in
    if y == absent then Array.unsafe_set slots hole absent
    else
      let k = hash y land mask in
      let stays =
        if hole <= j then hole < k && k <= j else hole < k || k <= j
      in
      if stays then shift slots mask hole j
      else (
        Array.unsafe_set slots hole y;
        shift slots mask j j)

  let remove s x =
    let slots = s.slots in
    let hole = slot_tuple slots x in
    let y = Array.unsafe_get slots hole in
    if y == absent then None
    else (
      shift slots (Array.length slots - 1) hole hole;
      s.count <- s.count - 1;
      s.order <- [||];
      Some y)
end

let can_pack = Sys.int_size >= 63
let pack2 a b = (a lsl 31) lor b

let make vs = of_ids (Array.map Value.Intern.id vs)
let of_list vs = of_ids (Array.of_list (List.map Value.Intern.id vs))
let to_list t = List.init (arity t) (fun i -> Value.Intern.of_id t.(i))

let id t i =
  if i < 0 || i >= arity t then
    invalid_arg
      (Printf.sprintf "Tuple.get: index %d out of bounds (arity %d)" i
         (arity t))
  else Array.unsafe_get t i

let get t i = Value.Intern.of_id (id t i)

(* lexicographic value order of [a] and [b] on their [n] first
   components, each read by [get] *)
let compare_by get n a b =
  let rec go i =
    if i = n then 0
    else
      let c = Value.Intern.compare_ids (get a i) (get b i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* [compare_by unsafe_id] with the reads in line: [List.sort compare]
   runs this loop for every comparison *)
let rec compare_from (a : t) (b : t) i n =
  if i = n then 0
  else
    let c =
      Value.Intern.compare_ids (Array.unsafe_get a i) (Array.unsafe_get b i)
    in
    if c <> 0 then c else compare_from a b (i + 1) n

let compare a b =
  let la = arity a and lb = arity b in
  if la <> lb then Int.compare la lb else compare_from a b 0 la

let project t cols = of_ids (Array.of_list (List.map (fun i -> id t i) cols))

let concat a b =
  let la = arity a and lb = arity b in
  let v = Array.make (la + lb) 0 in
  Array.blit a 0 v 0 la;
  Array.blit b 0 v la lb;
  of_ids v

let values t = Array.init (arity t) (fun i -> Value.Intern.of_id t.(i))

let exists p t =
  let rec from i =
    i < arity t && (p (Value.Intern.of_id t.(i)) || from (i + 1))
  in
  from 0

let rename t perm = of_ids (Array.map (fun i -> id t i) perm)

let render_args dialect b t =
  for i = 0 to arity t - 1 do
    if i > 0 then Buffer.add_string b ", ";
    Value.render dialect b (Value.Intern.of_id t.(i))
  done

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

(* Dense numbering of at most [m] distinct ids, in first-seen order: an
   open-addressing table of numbers ([-1] when free) at most half full,
   over [met], number -> id. [rank_sort] sizes it by the smaller of the
   list's id count and the number of interned values, which bounds the
   distinct ids among them: the cost still follows the list's length,
   never the intern table's size, and a long list over few values
   (serve-mixed's 41,659 [T] tuples hold 999) gets a small table. *)
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

(* [rank_sort ar get xs]: each distinct id is numbered ([numbering]),
   the numbered values are sorted once, and each number is replaced by
   its value-order rank; a stable counting sort per column, last column
   first, then orders the rank rows. *)
let rank_sort ar get xs =
  match xs with
  | [] | [ _ ] -> xs
  | _ ->
      if List.compare_length_with xs short < 0 then
        List.stable_sort (compare_by get ar) xs
      else
        let items = Array.of_list xs in
        let n = Array.length items in
        let numbers = numbering (min (n * ar) (Value.Intern.size ())) in
        let rows = Array.make (n * ar) 0 in
        Array.iteri
          (fun i it ->
            for c = 0 to ar - 1 do
              rows.((i * ar) + c) <- number numbers (get it c)
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
