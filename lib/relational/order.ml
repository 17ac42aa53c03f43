let adjoin ?(include_lt = true) inst =
  let dom = Instance.adom inst in
  match dom with
  | [] -> inst
  | d0 :: _ ->
      let rec last = function [ x ] -> x | _ :: t -> last t | [] -> d0 in
      let dlast = last dom in
      let succ_rows =
        let rec pairs = function
          | a :: (b :: _ as t) -> [ a; b ] :: pairs t
          | _ -> []
        in
        pairs dom
      in
      let lt_rows =
        if not include_lt then []
        else
          List.concat_map
            (fun a ->
              List.filter_map
                (fun b ->
                  if Value.compare a b < 0 then Some [ a; b ] else None)
                dom)
            dom
      in
      let inst = Instance.set "succ" (Relation.of_rows succ_rows) inst in
      let inst =
        if include_lt then Instance.set "lt" (Relation.of_rows lt_rows) inst
        else inst
      in
      let inst = Instance.set "first" (Relation.of_rows [ [ d0 ] ]) inst in
      Instance.set "last" (Relation.of_rows [ [ dlast ] ]) inst

let is_ordered inst =
  let succ = Instance.find "succ" inst in
  let first = Instance.find "first" inst in
  let last = Instance.find "last" inst in
  if Relation.is_empty succ && Relation.is_empty first && Relation.is_empty last
  then true
  else
    match (Relation.to_list first, Relation.to_list last) with
    | [ f ], [ l ] when Tuple.arity f = 1 && Tuple.arity l = 1 ->
        (* walk the successor chain from first; it must be a function,
           injective, and reach last. *)
        let next =
          Relation.fold
            (fun t acc ->
              if Tuple.arity t <> 2 then acc
              else (Tuple.get t 0, Tuple.get t 1) :: acc)
            succ []
        in
        let functional =
          let srcs = List.map fst next and dsts = List.map snd next in
          let distinct xs =
            List.length (List.sort_uniq Value.compare xs) = List.length xs
          in
          distinct srcs && distinct dsts
        in
        functional
        &&
        let rec walk v seen steps =
          if steps > List.length next + 1 then false
          else if Value.equal v (Tuple.get l 0) then
            not (List.exists (fun (s, _) -> Value.equal s v) next)
          else
            match List.assoc_opt v next with
            | None -> false
            | Some w ->
                (not (List.exists (Value.equal w) seen))
                && walk w (w :: seen) (steps + 1)
        in
        walk (Tuple.get f 0) [ Tuple.get f 0 ] 0
    | _ -> false
