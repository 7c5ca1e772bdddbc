(* Fixed-size domain pool: a mutex-and-condition protected FIFO of
   tasks, n worker domains looping pop-run-repeat, and one condition
   per future for the await side.  No spinning anywhere: workers block
   on [nonempty] when the queue is dry, awaiters block on the future's
   own condition until the worker fills it.  A task is the wrapper
   [enqueue] builds, which fills the future whatever the thunk does,
   so a worker outlives every task it runs. *)

type task = unit -> unit

type t = {
  queue : task Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;  (* signalled on admission and on shutdown *)
  max_pending : int option;
      (* admission bound: [try_submit] sheds once this many tasks are
         queued (running tasks don't count); [None] = unbounded *)
  mutable closed : bool;
  mutable domains : unit Domain.t list;
  workers : int;  (* configured width *)
}

type 'a state = Pending | Done of 'a | Failed of exn

type 'a future = {
  fmutex : Mutex.t;
  fcond : Condition.t;
  mutable state : 'a state;
}

(* Pop the next task, blocking while the queue is empty and the pool
   open; [None] means shutdown with an empty queue, i.e. exit. *)
let next_task pool =
  Mutex.lock pool.mutex;
  let rec go () =
    if not (Queue.is_empty pool.queue) then Some (Queue.pop pool.queue)
    else if pool.closed then None
    else begin
      Condition.wait pool.nonempty pool.mutex;
      go ()
    end
  in
  let job = go () in
  Mutex.unlock pool.mutex;
  job

let rec worker_loop pool =
  match next_task pool with
  | None -> ()
  | Some job ->
    job ();
    worker_loop pool

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
    }
  in
  pool.domains <-
    List.init n (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let size pool = pool.workers

let pending pool =
  Mutex.lock pool.mutex;
  let n = Queue.length pool.queue in
  Mutex.unlock pool.mutex;
  n

(* Admission control: shed (return [None]) when the pending queue is
   at [max_pending]. *)
let try_submit pool f =
  let fut = { fmutex = Mutex.create (); fcond = Condition.create ();
              state = Pending }
  in
  let fill outcome =
    Mutex.lock fut.fmutex;
    fut.state <- outcome;
    Condition.broadcast fut.fcond;
    Mutex.unlock fut.fmutex
  in
  let task () =
    fill (match f () with v -> Done v | exception e -> Failed e)
  in
  Mutex.lock pool.mutex;
  if pool.closed then begin
    Mutex.unlock pool.mutex;
    invalid_arg "Parallel.Pool.try_submit: pool is shut down"
  end;
  let full =
    match pool.max_pending with
    | Some m -> Queue.length pool.queue >= m
    | None -> false
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
