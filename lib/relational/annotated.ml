(* Semiring-annotated relations: a plain [Relation.t] (the support)
   plus a side-car map from interned-id vectors to annotation values.

   The side-car shape keeps the set core untouched: the flat relation,
   its memoized sorted views and every set engine stay byte-identical —
   Boolean evaluation never allocates or consults a map — while the
   annotated paths carry the same tuples with their values alongside. *)

module KTbl = Tuple.KTbl

type map = Semiring.v KTbl.t

let create_map () : map = KTbl.create 64
let set (m : map) ids v = KTbl.replace m ids v

let find (sr : Semiring.t) (m : map) ids =
  match KTbl.find_opt m ids with Some v -> v | None -> sr.Semiring.zero

(* m(ids) ← m(ids) ⊕ v *)
let combine (sr : Semiring.t) (m : map) ids v =
  match KTbl.find_opt m ids with
  | Some old -> KTbl.replace m ids (sr.Semiring.plus old v)
  | None -> KTbl.replace m ids v

let fold f (m : map) acc = KTbl.fold f m acc
let cardinal (m : map) = KTbl.length m

type rel = { rel : Relation.t; ann : map }

let of_relation (sr : Semiring.t) rel f =
  let ann = KTbl.create (max 16 (2 * Relation.cardinal rel)) in
  Relation.unordered_iter
    (fun t ->
      let v = f t in
      if not (Semiring.is_zero sr v) then KTbl.replace ann (Tuple.ids t) v)
    rel;
  (* zero-annotated tuples are absent by the K-relation definition *)
  let rel =
    if KTbl.length ann = Relation.cardinal rel then rel
    else Relation.filter (fun t -> KTbl.mem ann (Tuple.ids t)) rel
  in
  { rel; ann }
