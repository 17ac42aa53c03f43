(** The one stop rule of the engines that can diverge: Datalog¬¬ and
    Datalog¬new (Theorems 4.5/4.6), the while language, N-Datalog walks
    and effect enumeration, the chase, production and active rules, and
    netlog. Each takes an optional [?fuel] budget in its own unit of work
    (stages, loop iterations, firings, states, ...) and, when the budget
    runs out before a result, raises {!Exhausted}. *)

(** [Exhausted { engine; budget; instance }]: [engine] spent its [budget]
    without reaching a result; [instance] is the state it had reached. *)
exception Exhausted of { engine : string; budget : int; instance : Instance.t }
