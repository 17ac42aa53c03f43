(* A fork–join barrier over a fixed set of domains. Helper domains park
   on [work_ready] between jobs; [run] publishes a closure under the
   mutex, bumps the generation counter so every helper sees exactly one
   wake-up per job, and the caller doubles as worker 0 so a pool of size
   n costs n-1 domains. *)

type t = {
  size : int;
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable generation : int;
  mutable job : (int -> unit) option;
  mutable pending : int;
  mutable errors : (int * exn) list;
  mutable stop : bool;
  mutable domains : unit Domain.t array;
  (* in-job barrier (run_phases): classic counting barrier over the
     pool's mutex with its own condition variable and generation *)
  barrier : Condition.t;
  mutable bar_count : int;
  mutable bar_gen : int;
}

let size p = p.size

let worker_loop pool w =
  let gen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock pool.mutex;
    while (not pool.stop) && pool.generation = !gen do
      Condition.wait pool.work_ready pool.mutex
    done;
    if pool.stop then (
      running := false;
      Mutex.unlock pool.mutex)
    else begin
      gen := pool.generation;
      let job = Option.get pool.job in
      Mutex.unlock pool.mutex;
      let err = (try job w; None with e -> Some e) in
      Mutex.lock pool.mutex;
      (match err with
      | Some e -> pool.errors <- (w, e) :: pool.errors
      | None -> ());
      pool.pending <- pool.pending - 1;
      if pool.pending = 0 then Condition.broadcast pool.work_done;
      Mutex.unlock pool.mutex
    end
  done

let create n =
  if n < 1 then invalid_arg "Parallel.Pool.create: size must be >= 1";
  let pool =
    {
      size = n;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      generation = 0;
      job = None;
      pending = 0;
      errors = [];
      stop = false;
      domains = [||];
      barrier = Condition.create ();
      bar_count = 0;
      bar_gen = 0;
    }
  in
  pool.domains <-
    Array.init (n - 1) (fun i -> Domain.spawn (fun () -> worker_loop pool (i + 1)));
  pool

let run pool f =
  Mutex.lock pool.mutex;
  pool.job <- Some f;
  pool.pending <- pool.size - 1;
  pool.errors <- [];
  pool.generation <- pool.generation + 1;
  Condition.broadcast pool.work_ready;
  Mutex.unlock pool.mutex;
  let caller_err = (try f 0; None with e -> Some e) in
  Mutex.lock pool.mutex;
  while pool.pending > 0 do
    Condition.wait pool.work_done pool.mutex
  done;
  pool.job <- None;
  let errs = pool.errors in
  pool.errors <- [];
  Mutex.unlock pool.mutex;
  match caller_err with
  | Some e -> raise e
  | None -> (
      match List.sort (fun (a, _) (b, _) -> Int.compare a b) errs with
      | (_, e) :: _ -> raise e
      | [] -> ())

(* Barrier inside a job: every worker of the current [run] must call
   this the same number of times. All [size] workers (the caller
   included) park until the last one arrives, then the generation flips
   and everyone proceeds. The mutex doubles as the memory fence: writes
   made before the barrier are visible to every worker after it. *)
let barrier_wait pool =
  Mutex.lock pool.mutex;
  let gen = pool.bar_gen in
  pool.bar_count <- pool.bar_count + 1;
  if pool.bar_count = pool.size then begin
    pool.bar_count <- 0;
    pool.bar_gen <- gen + 1;
    Condition.broadcast pool.barrier
  end
  else
    while pool.bar_gen = gen do
      Condition.wait pool.barrier pool.mutex
    done;
  Mutex.unlock pool.mutex

(* Phased job: every worker runs phase 0, hits a barrier, runs phase 1,
   and so on — the shard-exchange discipline (derive, then drain) in one
   fan-out instead of one [run] per phase. A worker that raises skips
   its remaining phases but still participates in every barrier, so its
   siblings never deadlock waiting for it; the exception resurfaces
   through [run]'s normal error path once the job completes. *)
let run_phases pool phases =
  let last = Array.length phases - 1 in
  run pool (fun w ->
      let err = ref None in
      Array.iteri
        (fun i f ->
          (if Option.is_none !err then try f w with e -> err := Some e);
          if i < last then barrier_wait pool)
        phases;
      match !err with Some e -> raise e | None -> ())

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.stop <- true;
  Condition.broadcast pool.work_ready;
  Mutex.unlock pool.mutex;
  Array.iter Domain.join pool.domains;
  pool.domains <- [||]

(* Process-global pool: sized once by the CLI, checked out per fixpoint.
   [in_use] is an atomic flag rather than a lock so the one nested
   fixpoint (a stratified wave group's semi-naive run) observes "busy"
   and degrades to sequential instead of blocking. *)

let global : t option ref = ref None
let njobs = ref 1
let in_use = Atomic.make false

let shutdown_global () =
  match !global with
  | Some p ->
      global := None;
      shutdown p
  | None -> ()

let set_jobs n =
  if n < 1 then invalid_arg "Parallel.Pool.set_jobs: jobs must be >= 1";
  if Atomic.get in_use then
    invalid_arg "Parallel.Pool.set_jobs: pool is in use";
  shutdown_global ();
  njobs := n;
  if n > 1 then global := Some (create n)

let jobs () = !njobs

let acquire () =
  match !global with
  | None -> None
  | Some p ->
      if Atomic.compare_and_set in_use false true then Some p else None

let release _p = Atomic.set in_use false
let () = at_exit shutdown_global
