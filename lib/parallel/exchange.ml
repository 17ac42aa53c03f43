open Relational

(* An [n]×[n] grid of outboxes for batched cross-shard tuple routing.
   Cell (src, dst) is written only by the worker owning shard [src]
   (during a derive phase) and read only by the worker owning shard
   [dst] (during the following exchange phase); the pool barrier between
   the phases is the only synchronisation needed, so posting and
   draining touch no locks and no atomics. *)

(* Per-cell state: tuple buffers per predicate (in first-post order, so
   draining is deterministic given the poster's derivation order), a
   per-predicate seen-set for duplicate suppression, and a cumulative
   post count. The seen-sets survive [drain] — a given (pred, tuple) is
   shipped on a given (src, dst) edge at most once over the exchange's
   lifetime, which is what keeps re-derivations in later rounds off the
   wire. *)
type cell = {
  mutable order : string list;  (* reversed first-post order *)
  bufs : (string, Tuple.t list ref * Tuple.Set.t) Hashtbl.t;
  mutable count : int;
}

type t = { nshards : int; cells : cell array }

let create nshards =
  if nshards < 1 then invalid_arg "Parallel.Exchange.create: nshards >= 1";
  {
    nshards;
    cells =
      Array.init (nshards * nshards) (fun _ ->
          { order = []; bufs = Hashtbl.create 4; count = 0 });
  }

let cell t ~src ~dst =
  if src < 0 || src >= t.nshards || dst < 0 || dst >= t.nshards then
    invalid_arg "Parallel.Exchange: shard out of range";
  t.cells.((src * t.nshards) + dst)

let post t ~src ~dst pred tup =
  let c = cell t ~src ~dst in
  let lst, seen =
    match Hashtbl.find_opt c.bufs pred with
    | Some s -> s
    | None ->
        let s = (ref [], Tuple.Set.create 64) in
        Hashtbl.add c.bufs pred s;
        c.order <- pred :: c.order;
        s
  in
  let fresh = Tuple.Set.add seen tup in
  if fresh then (
    lst := tup :: !lst;
    c.count <- c.count + 1);
  fresh

let drain t ~dst f =
  for src = 0 to t.nshards - 1 do
    let c = cell t ~src ~dst in
    List.iter
      (fun pred ->
        match Hashtbl.find_opt c.bufs pred with
        | None -> ()
        | Some (lst, _) ->
            (match !lst with [] -> () | ts -> f ~src ~pred (List.rev ts));
            lst := [])
      (List.rev c.order)
  done

let total_posted t = Array.fold_left (fun n c -> n + c.count) 0 t.cells
