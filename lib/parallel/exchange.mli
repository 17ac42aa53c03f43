(** Batched cross-shard tuple routing: an [n]×[n] grid of per-predicate
    outboxes, the communication half of the semi-naive loop when it runs
    on [n > 1] workers, a fact going from the worker that derived it to
    the worker that owns it.

    Ownership discipline (the reason this needs no locks): cell
    [(src, dst)] is written only by the worker owning shard [src] and
    read only by the worker owning shard [dst], in different phases of a
    {!Pool.run_phases} job — the phase barrier publishes the writes.
    Used sequentially (one caller playing every shard) it is just a
    deterministic routing table. *)

open Relational

type t

(** [create n] builds the exchange for [n] shards. *)
val create : int -> t

(** [post t ~src ~dst pred tup] enqueues [tup] for predicate [pred] on
    the [(src, dst)] edge. Returns [false] (and enqueues nothing) if the
    same fact was already posted on this edge at any point — per-edge
    duplicate suppression persists across {!drain}s, so a fact travels a
    given edge at most once over the exchange's lifetime. *)
val post : t -> src:int -> dst:int -> string -> Tuple.t -> bool

(** [drain t ~dst f] delivers every pending batch addressed to [dst]:
    sources in ascending order, predicates in first-post order, tuples
    in post order — deterministic given the posting order. Drained
    buffers are emptied (the duplicate-suppression memory is kept). *)
val drain :
  t -> dst:int -> (src:int -> pred:string -> Tuple.t list -> unit) -> unit

(** [total_posted t] is the cumulative number of accepted posts — the
    cross-shard tuple traffic, reported as [par.exchanged_tuples]. *)
val total_posted : t -> int
