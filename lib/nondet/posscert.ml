open Relational

let intersect a b =
  (* per-relation intersection; relations absent on either side drop out *)
  Instance.fold
    (fun name ra acc ->
      let r = Relation.inter ra (Instance.find name b) in
      if Relation.is_empty r then acc else Instance.set name r acc)
    a Instance.empty

let poss ?fuel p inst =
  let js = Enumerate.terminals ?fuel p inst in
  List.fold_left Instance.union Instance.empty js

let cert ?fuel p inst =
  match Enumerate.terminals ?fuel p inst with
  | [] -> Instance.empty
  | j :: js -> List.fold_left intersect j js
