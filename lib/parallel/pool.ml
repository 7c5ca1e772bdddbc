(* Fixed-size domain pool: a mutex-and-condition protected FIFO of
   tasks, n worker domains looping pop-run-repeat, and one condition
   per future for the await side.  No spinning anywhere: workers block
   on [nonempty] when the queue is dry, awaiters block on the future's
   own condition until the worker fills it.

   A task carries both its [run] thunk and an [abort] continuation so
   that a worker dying *between* dequeue and completion can still fail
   the task's future — otherwise an awaiter would block forever on a
   task no surviving worker holds.  Workers that die (only via the
   chaos hook today; the [run] wrapper built by [submit] cannot raise)
   are respawned so the pool keeps its configured width. *)

exception Worker_crashed

type task = { run : unit -> unit; abort : exn -> unit }

type t = {
  queue : task Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;  (* signalled on submit and on shutdown *)
  max_pending : int option;
      (* admission bound: [try_submit] sheds once this many tasks are
         queued (running tasks don't count); [None] = unbounded *)
  mutable closed : bool;
  mutable domains : unit Domain.t list;
      (* every domain ever spawned, dead ones included: shutdown joins
         them all (a dead domain joins instantly) *)
  workers : int;  (* configured width *)
  mutable chaos_countdown : int;
      (* > 0: the countdown-th dequeue kills its worker (deterministic
         crash injection); <= 0: disarmed *)
  mutable respawned : int;
}

type 'a state = Pending | Done of 'a | Failed of exn

type 'a future = {
  fmutex : Mutex.t;
  fcond : Condition.t;
  mutable state : 'a state;
}

(* Pop the next task, blocking while the queue is empty and the pool
   open; [None] means shutdown with an empty queue, i.e. exit.  The
   boolean is the chaos verdict: [true] tells the worker to die with
   this task (decided here, under the mutex, so exactly one worker
   crashes no matter how dequeues interleave). *)
let next_task pool =
  Mutex.lock pool.mutex;
  let rec go () =
    if not (Queue.is_empty pool.queue) then begin
      let job = Queue.pop pool.queue in
      let crash =
        pool.chaos_countdown > 0
        && begin
             pool.chaos_countdown <- pool.chaos_countdown - 1;
             pool.chaos_countdown = 0
           end
      in
      Some (job, crash)
    end
    else if pool.closed then None
    else begin
      Condition.wait pool.nonempty pool.mutex;
      go ()
    end
  in
  let job = go () in
  Mutex.unlock pool.mutex;
  job

(* Replace a dead (or dying) worker, keeping the pool at its
   configured width so queued tasks still drain.  [closed] is read
   under the pool mutex — shutdown sets it under the same mutex, so a
   dying worker either respawns before shutdown snapshots the domain
   list or sees [closed] and stays down; either way no replacement
   outlives the join loop. *)
let rec respawn pool =
  Mutex.lock pool.mutex;
  if not pool.closed then begin
    pool.respawned <- pool.respawned + 1;
    pool.domains <- spawn_worker pool :: pool.domains
  end;
  Mutex.unlock pool.mutex

and worker_loop pool =
  match next_task pool with
  | None -> ()
  | Some (job, crash) ->
    if crash then begin
      (* Respawn bookkeeping *before* failing the future: the abort
         wakes the awaiter, who may immediately [shutdown] the pool or
         read [respawns] — both must find the replacement recorded.
         (Failing the future first opened exactly that race: a fast
         awaiter's shutdown flipped [closed] before this domain's
         wrapper ran, and the respawn was silently skipped.)  The
         domain then ends here — dying by return, with the replacement
         already running, rather than by an exception the wrapper
         below would double-count. *)
      respawn pool;
      job.abort Worker_crashed
    end
    else begin
      (* [job.run] is a [submit] wrapper and cannot raise; the guard is
         belt-and-braces so a worker never dies silently. *)
      (try job.run () with _ -> ());
      worker_loop pool
    end

(* The spawn wrapper: guards the loop against escapes that are not
   chaos crashes (those respawn inline above) — nothing today, but a
   worker must never die silently and leave the pool under width. *)
and spawn_worker pool =
  Domain.spawn (fun () ->
      try worker_loop pool with _ -> respawn pool)

let create ?max_pending n =
  if n < 1 then invalid_arg "Parallel.Pool.create: need at least one worker";
  (match max_pending with
  | Some m when m < 1 ->
    invalid_arg "Parallel.Pool.create: max_pending must be >= 1"
  | Some _ | None -> ());
  let pool =
    {
      queue = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      max_pending;
      closed = false;
      domains = [];
      workers = n;
      chaos_countdown = 0;
      respawned = 0;
    }
  in
  pool.domains <- List.init n (fun _ -> spawn_worker pool);
  pool

let size pool = pool.workers

let pending pool =
  Mutex.lock pool.mutex;
  let n = Queue.length pool.queue in
  Mutex.unlock pool.mutex;
  n

let respawns pool =
  Mutex.lock pool.mutex;
  let r = pool.respawned in
  Mutex.unlock pool.mutex;
  r

let chaos_crash_after pool n =
  if n < 1 then
    invalid_arg "Parallel.Pool.chaos_crash_after: non-positive count";
  Mutex.lock pool.mutex;
  pool.chaos_countdown <- n;
  Mutex.unlock pool.mutex

(* [bounded] is the admission-control switch: [submit] always
   enqueues, [try_submit] sheds when the pending queue is at
   [max_pending]. *)
let enqueue pool ~bounded f =
  let fut = { fmutex = Mutex.create (); fcond = Condition.create ();
              state = Pending }
  in
  let fill outcome =
    Mutex.lock fut.fmutex;
    fut.state <- outcome;
    Condition.broadcast fut.fcond;
    Mutex.unlock fut.fmutex
  in
  let task =
    {
      run =
        (fun () ->
          fill (match f () with v -> Done v | exception e -> Failed e));
      abort = (fun e -> fill (Failed e));
    }
  in
  Mutex.lock pool.mutex;
  if pool.closed then begin
    Mutex.unlock pool.mutex;
    invalid_arg "Parallel.Pool.submit: pool is shut down"
  end;
  let full =
    bounded
    && (match pool.max_pending with
       | Some m -> Queue.length pool.queue >= m
       | None -> false)
  in
  if full then begin
    Mutex.unlock pool.mutex;
    None
  end
  else begin
    Queue.push task pool.queue;
    Condition.signal pool.nonempty;
    Mutex.unlock pool.mutex;
    Some fut
  end

let submit pool f =
  match enqueue pool ~bounded:false f with
  | Some fut -> fut
  | None -> assert false (* unbounded enqueue never sheds *)

let try_submit pool f = enqueue pool ~bounded:true f

let await fut =
  Mutex.lock fut.fmutex;
  let rec go () =
    match fut.state with
    | Pending ->
      Condition.wait fut.fcond fut.fmutex;
      go ()
    | Done v -> Ok v
    | Failed e -> Error e
  in
  let r = go () in
  Mutex.unlock fut.fmutex;
  r

let await_exn fut = match await fut with Ok v -> v | Error e -> raise e

let is_settled fut =
  Mutex.lock fut.fmutex;
  let settled = match fut.state with Pending -> false | Done _ | Failed _ -> true in
  Mutex.unlock fut.fmutex;
  settled

let shutdown pool =
  Mutex.lock pool.mutex;
  let domains = pool.domains in
  pool.closed <- true;
  pool.domains <- [];
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.mutex;
  List.iter Domain.join domains
