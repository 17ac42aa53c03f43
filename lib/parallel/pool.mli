(** A fixed pool of OCaml 5 domains for data-parallel evaluation.

    The engines use a {e fork–join at a barrier} discipline: the
    coordinator prepares a read-only snapshot, {!run} hands every worker
    the same closure (distinguished only by its worker index), and
    control returns to the coordinator once all workers finished. All
    mutation of shared engine state happens strictly between {!run}
    calls, on the coordinator.

    The pool is process-global and sized once per CLI invocation with
    {!set_jobs}; evaluation code borrows it through {!acquire} /
    {!release}. Two callers borrow it: the semi-naive loop
    ([Eval_util.seminaive_fixpoint]) for one fixpoint, and the
    stratified engine for one wave of independent SCC groups. The only
    nested acquire is a wave group's own semi-naive fixpoint: it runs
    inside a task ({!in_task}), finds the pool busy and runs on its own
    worker instead of deadlocking on a second barrier. That is the
    wave's parallelism, not a degradation: a fixpoint counts
    [par.pool.fallbacks] only when it finds the pool busy outside any
    task.
    Sequential callers of the semi-naive loop, such as the well-founded
    alternation, acquire and release the pool once per fixpoint. *)

type t

(** [size p] is the number of workers, including the caller: [run p f]
    invokes [f w] for every [w] in [0 .. size p - 1]. *)
val size : t -> int

(** [run p f] executes [f 0 .. f (size p - 1)] concurrently — [f 0] on
    the calling domain, the rest on the pool's domains — and returns
    when every call finished. If one or more workers raised, the first
    exception (in worker order) is re-raised on the caller after the
    barrier. Not re-entrant: [f] must not call [run] on the same pool. *)
val run : t -> (int -> unit) -> unit

(** [run_phases p [|f; g; ...|]] is one fan-out running several phases
    separated by in-job barriers: every worker executes [f w], waits for
    all workers to finish phase 0, executes [g w], and so on. The
    barrier is a full memory fence (mutex-protected), so writes made by
    any worker in one phase are visible to every worker in the next —
    the derive/exchange discipline of the sharded fixpoint. A worker
    that raises skips its remaining phases but keeps meeting the
    barriers, so siblings don't deadlock; the first exception (in worker
    order) is re-raised on the caller, as with {!run}. *)
val run_phases : t -> (int -> unit) array -> unit

(** [in_task ()] holds while the calling domain runs one of the workers
    of a {!run} (the caller's worker 0 included). *)
val in_task : unit -> bool

(** {1 Process-global pool}

    The CLI sets the job count once; evaluation code checks it out for
    the duration of a fixpoint. *)

(** [set_jobs n] declares that subsequent evaluations may use [n]
    workers ([n >= 1]; 1 means sequential). Replaces (and shuts down)
    any previously created pool. Raises [Invalid_argument] on [n < 1].
    Must not be called while the pool is {!acquire}d. *)
val set_jobs : int -> unit

(** [jobs ()] is the last value passed to {!set_jobs} (default 1). *)
val jobs : unit -> int

(** [acquire ()] checks out the global pool: [Some p] iff jobs > 1 and
    no other computation currently holds it. The caller must {!release}
    it (use [Fun.protect]). Callers finding [None] run sequentially. *)
val acquire : unit -> t option

(** [release p] returns the pool checked out by {!acquire}. *)
val release : t -> unit
