(* A tuple is a flat array of interned value ids plus its precomputed
   hash: equality is int-array comparison, hashing is a field read, and
   the constant's structure is only revisited when a component is decoded
   back to a [Value.t]. *)

type t = { ids : int array; h : int }

(* Avalanching mix (FxHash-style): interned ids are dense small ints, so
   a plain [h*31 + id] polynomial leaves almost all entropy in a few low
   bits' worth of range — 79k two-column tuples over 300 constants would
   share ~10k hash values, degrading every hash structure (and the
   hash-keyed relation trie) into long collision chains. The multiply
   spreads each id across the word; the xor-shift folds the high bits
   back down so the low bits (trie branch bits, table masks) are well
   distributed too. *)
let hash_ids ids =
  let n = Array.length ids in
  let h = ref (n + 0x9E3779B9) in
  for i = 0 to n - 1 do
    let x = (!h lxor Array.unsafe_get ids i) * 0x9E3779B1 in
    h := x lxor (x lsr 29)
  done;
  !h land max_int

let of_ids ids = { ids; h = hash_ids ids }

let equal_ids t ids =
  let la = Array.length t.ids in
  la = Array.length ids
  &&
  let rec eq i =
    i = la || (Array.unsafe_get t.ids i = Array.unsafe_get ids i && eq (i + 1))
  in
  eq 0

(* Hash tables keyed by interned ids: [KTbl] by id vectors (join keys,
   dedup sets), [ITbl] by one int — a single id, or a pair packed by
   [pack2]. Interned ids are dense table indices far below 2^31, so a
   pair packs reversibly into one int on 64-bit hosts: no array
   allocation per probe. *)
module KTbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) b =
    let la = Array.length a in
    la = Array.length b
    &&
    let rec eq i =
      i = la || (Array.unsafe_get a i = Array.unsafe_get b i && eq (i + 1))
    in
    eq 0

  let hash = hash_ids
end)

module ITbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash x =
    let h = x * 0x9E3779B1 in
    (h lxor (h lsr 29)) land max_int
end)

let can_pack = Sys.int_size >= 63
let pack2 a b = (a lsl 31) lor b
let unpack2 k = [| k lsr 31; k land 0x7FFFFFFF |]

let make vs = of_ids (Array.map Value.Intern.id vs)
let of_list vs = of_ids (Array.of_list (List.map Value.Intern.id vs))
let to_list t = List.map Value.Intern.of_id (Array.to_list t.ids)
let arity t = Array.length t.ids
let ids t = t.ids
let copy t = { t with ids = Array.copy t.ids }

let id t i =
  if i < 0 || i >= Array.length t.ids then
    invalid_arg
      (Printf.sprintf "Tuple.get: index %d out of bounds (arity %d)" i
         (Array.length t.ids))
  else Array.unsafe_get t.ids i

let get t i = Value.Intern.of_id (id t i)

let compare a b =
  let la = Array.length a.ids and lb = Array.length b.ids in
  if la <> lb then Int.compare la lb
  else
    let rec go i =
      if i = la then 0
      else
        let c =
          Value.Intern.compare_ids
            (Array.unsafe_get a.ids i)
            (Array.unsafe_get b.ids i)
        in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let equal a b =
  a == b
  || a.h = b.h
     &&
     let la = Array.length a.ids in
     la = Array.length b.ids
     &&
     let rec eq i =
       i = la
       || Array.unsafe_get a.ids i = Array.unsafe_get b.ids i && eq (i + 1)
     in
     eq 0

let hash t = t.h
let project t cols = of_ids (Array.of_list (List.map (fun i -> id t i) cols))
let concat a b = of_ids (Array.append a.ids b.ids)
let values t = Array.map Value.Intern.of_id t.ids
let exists p t = Array.exists (fun i -> p (Value.Intern.of_id i)) t.ids
let rename t perm = of_ids (Array.map (fun i -> id t i) perm)

let pp ppf t =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Value.pp)
    (values t)

let to_string t = Format.asprintf "%a" pp t
