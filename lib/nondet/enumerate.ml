open Relational
module Ast = Datalog.Ast

type stats = {
  terminals : Instance.t list;
  explored : int;
  abandoned_branches : int;
}

module ISet = Set.Make (struct
  type t = Instance.t

  let compare = Instance.compare
end)

let effect ?(fuel = 100_000) p inst =
  let seen = ref ISet.empty in
  let explored = ref 1 in
  let terminals = ref ISet.empty in
  let abandoned = ref 0 in
  let queue = Queue.create () in
  Queue.add inst queue;
  seen := ISet.add inst !seen;
  while not (Queue.is_empty queue) do
    let state = Queue.pop queue in
    let { Nd_eval.changed; bottom_applicable } =
      Nd_eval.successors p state
    in
    if bottom_applicable then incr abandoned;
    if changed = [] && not bottom_applicable then
      terminals := ISet.add state !terminals
    else
      List.iter
        (fun next ->
          if not (ISet.mem next !seen) then (
            if !explored >= fuel then
              raise
                (Fuel.Exhausted
                   {
                     engine = "nondet.enumerate";
                     budget = fuel;
                     instance = state;
                   });
            seen := ISet.add next !seen;
            incr explored;
            Queue.add next queue))
        changed
  done;
  {
    terminals = ISet.elements !terminals;
    explored = !explored;
    abandoned_branches = !abandoned;
  }

let terminals ?fuel p inst = (effect ?fuel p inst).terminals
