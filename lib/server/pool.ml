(** Fixed-size domain worker pool with a bounded job queue.

    Compute jobs (repairs, acquisitions, session re-solves) run on
    [Domain.spawn]ed workers so they execute in parallel; I/O threads
    submit jobs and wait on futures.  The queue is bounded: when it is
    full, {!try_submit} refuses the job and the server answers [busy]
    instead of building an unbounded backlog (explicit backpressure).

    Nested parallelism is deadlock-free by construction: {!map} (used by
    the solver to fan out connected components from {e inside} a worker)
    never blocks on a job that no one has started.  Each future can be
    {e claimed} exactly once — by the worker that popped it or by the
    caller of {!map} itself — so a saturated pool degrades to inline
    sequential execution instead of deadlocking. *)

module Cancel = Dart_resilience.Cancel
module Fair_queue = Dart_resilience.Overload.Fair_queue
module Faultsim = Dart_faultsim.Faultsim

type 'a state =
  | Pending of (unit -> 'a)   (** queued or local, not yet claimed *)
  | Running                   (** claimed by some domain/thread *)
  | Done of ('a, exn) result
  | Cancelled

type 'a future = {
  mutable st : 'a state;
  token : Cancel.t;           (* cooperative-cancellation token the job polls *)
  fmu : Mutex.t;
  fcond : Condition.t;
}

type job = Job : _ future -> job

type t = {
  queue : job Fair_queue.t;
  (* Round-robin across client ids: one hot client cannot starve the
     rest (see Dart_resilience.Overload.Fair_queue).  Internal work —
     [map] fan-out, session re-solves — uses the reserved "" client. *)
  capacity : int;
  qmu : Mutex.t;
  qcond : Condition.t;            (* signalled on enqueue and on stop *)
  faults : Faultsim.t;            (* injected worker stalls / crashes *)
  mutable idle : int;             (* workers blocked waiting for a job *)
  mutable stopping : bool;
  mutable workers : unit Domain.t array;
}

exception Cancelled_exn

let future ?(cancel = Cancel.none) thunk =
  { st = Pending thunk; token = cancel;
    fmu = Mutex.create (); fcond = Condition.create () }

(* Claim and run a future if it is still pending; no-op otherwise.
   [faults] injects worker stalls/crashes *inside* the claim, so an
   injected crash resolves the future with [Error] exactly like a real
   worker exception would — the pool slot is never poisoned. *)
let run_if_pending ?(faults = Faultsim.none) (Job fut) =
  Mutex.lock fut.fmu;
  match fut.st with
  | Pending thunk ->
    fut.st <- Running;
    Mutex.unlock fut.fmu;
    let result =
      try Faultsim.on_worker_job faults; Ok (thunk ()) with e -> Error e
    in
    Mutex.lock fut.fmu;
    fut.st <- Done result;
    Condition.broadcast fut.fcond;
    Mutex.unlock fut.fmu
  | Running | Done _ | Cancelled -> Mutex.unlock fut.fmu

let worker_loop pool () =
  let rec loop () =
    Mutex.lock pool.qmu;
    while Fair_queue.is_empty pool.queue && not pool.stopping do
      pool.idle <- pool.idle + 1;
      Condition.wait pool.qcond pool.qmu;
      pool.idle <- pool.idle - 1
    done;
    (* On shutdown, drain what is already queued, then exit. *)
    match Fair_queue.pop pool.queue with
    | None -> Mutex.unlock pool.qmu
    | Some job ->
      Mutex.unlock pool.qmu;
      run_if_pending ~faults:pool.faults job;
      loop ()
  in
  loop ()

(** [create ~domains ~queue_capacity] spawns [domains] (>= 1) worker
    domains.  [queue_capacity] bounds jobs waiting to start (in-flight
    jobs do not count).  [faults] injects stalls/crashes into worker job
    execution (chaos testing); default none. *)
let create ?(faults = Faultsim.none) ~domains ~queue_capacity () =
  if domains < 1 then invalid_arg "Pool.create: domains must be >= 1";
  if queue_capacity < 1 then invalid_arg "Pool.create: queue_capacity must be >= 1";
  let pool =
    { queue = Fair_queue.create (); capacity = queue_capacity;
      qmu = Mutex.create (); qcond = Condition.create (); faults;
      idle = 0; stopping = false; workers = [||] }
  in
  pool.workers <-
    Array.init domains (fun _ -> Domain.spawn (fun () -> worker_loop pool ()));
  pool

let size pool = Array.length pool.workers

(** Jobs waiting in the queue right now (queued, not yet claimed). *)
let depth pool =
  Mutex.lock pool.qmu;
  let n = Fair_queue.length pool.queue in
  Mutex.unlock pool.qmu;
  n

(* Enqueue a job if there is room; used by both submit and map.
   [client] picks the fair-queue slot; "" is the internal lane. *)
let try_enqueue ?(client = "") pool job =
  Mutex.lock pool.qmu;
  if pool.stopping || Fair_queue.length pool.queue >= pool.capacity then begin
    Mutex.unlock pool.qmu;
    false
  end
  else begin
    Fair_queue.push pool.queue ~client job;
    Condition.signal pool.qcond;
    Mutex.unlock pool.qmu;
    true
  end

(** Submit a thunk; [None] when the queue is full (backpressure) or the
    pool is shutting down.  [cancel] is remembered on the future so
    {!request_cancel} can signal the job after it starts running.
    [client] is the fair-queue identity: jobs are dequeued round-robin
    across client ids, oldest-first within one id. *)
let try_submit ?cancel ?client pool thunk =
  let fut = future ?cancel thunk in
  if try_enqueue ?client pool (Job fut) then Some fut else None

type 'a outcome = [ `Done of ('a, exn) result | `Cancelled | `Pending_or_running ]

let poll fut : _ outcome =
  Mutex.lock fut.fmu;
  let r =
    match fut.st with
    | Done r -> `Done r
    | Cancelled -> `Cancelled
    | Pending _ | Running -> `Pending_or_running
  in
  Mutex.unlock fut.fmu;
  r

(** Cancel a future that has not started; [true] iff it will never run. *)
let try_cancel fut =
  Mutex.lock fut.fmu;
  let cancelled =
    match fut.st with
    | Pending _ ->
      fut.st <- Cancelled;
      Condition.broadcast fut.fcond;
      true
    | Running | Done _ | Cancelled -> false
  in
  Mutex.unlock fut.fmu;
  cancelled

(** Best-effort cancellation: deschedule the job if it has not started
    ([true] — it will never run); otherwise fire its cooperative token so
    the running solve aborts at its next poll point ([false]). *)
let request_cancel fut =
  if try_cancel fut then true
  else begin
    Cancel.cancel fut.token;
    false
  end

(* Wait for completion; if the future was never enqueued (or the pool is
   saturated), the caller claims and runs it inline rather than blocking
   on work nobody owns. *)
let claim_or_await fut =
  Mutex.lock fut.fmu;
  match fut.st with
  | Pending thunk ->
    fut.st <- Running;
    Mutex.unlock fut.fmu;
    let result = try Ok (thunk ()) with e -> Error e in
    Mutex.lock fut.fmu;
    fut.st <- Done result;
    Condition.broadcast fut.fcond;
    Mutex.unlock fut.fmu;
    result
  | Running | Done _ | Cancelled ->
    let rec wait () =
      match fut.st with
      | Done r -> Mutex.unlock fut.fmu; r
      | Cancelled -> Mutex.unlock fut.fmu; Error Cancelled_exn
      | Pending _ | Running ->
        Condition.wait fut.fcond fut.fmu;
        wait ()
    in
    wait ()

(** Block until the future completes (running it inline if unclaimed). *)
let await fut =
  match claim_or_await fut with Ok v -> v | Error e -> raise e

(** Parallel map over the pool, safe to call from inside a worker: order
    and length are preserved; the calling thread helps execute items the
    pool has no room for (or that no worker picked up yet), so nested
    [map]s cannot deadlock.  The first exception (in list order) is
    re-raised after every item has settled. *)
let map pool f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs ->
    (* Capture the caller's trace context (e.g. the repair.card_minimal
       span) and rebind it in whichever domain ends up running each item,
       so per-component spans stitch into the request's tree instead of
       starting orphan traces on the worker domains. *)
    let ctx = Dart_obs.Obs.Trace.current () in
    let f =
      match ctx with
      | None -> f
      | Some _ -> fun x -> Dart_obs.Obs.Trace.with_context ctx (fun () -> f x)
    in
    let futs = List.map (fun x -> future (fun () -> f x)) xs in
    (* Best effort: while some worker is idle, offer every item to the
       pool; refusals stay local and are claimed inline below.  With no
       idle worker, offered items would only sit queued as dead entries
       after this caller claims them, filling the queue against client
       requests (a one-domain server answered [busy]). *)
    Mutex.lock pool.qmu;
    let offer = pool.idle > 0 in
    Mutex.unlock pool.qmu;
    if offer then List.iter (fun fut -> ignore (try_enqueue pool (Job fut))) futs;
    let results = List.map claim_or_await futs in
    List.map (function Ok v -> v | Error e -> raise e) results

(** A {!Dart_repair.Solver.mapper} backed by this pool: connected
    components of one repair solve in parallel. *)
let solver_mapper pool : Dart_repair.Solver.mapper =
  { Dart_repair.Solver.map = (fun f xs -> map pool f xs) }

(** Stop accepting new jobs, drain the queue, and join the workers.
    Futures still [Pending] when their turn comes are executed (drain
    semantics) — cancel them first for a faster stop. *)
let shutdown pool =
  Mutex.lock pool.qmu;
  pool.stopping <- true;
  Condition.broadcast pool.qcond;
  Mutex.unlock pool.qmu;
  Array.iter Domain.join pool.workers
