(** A fixed-size pool of worker domains.

    Hand-rolled over [Domain] / [Mutex] / [Condition] (no external
    scheduler dependency): [create n] spawns [n] domains that block on
    a shared FIFO task queue; [try_submit] enqueues a thunk and returns
    a future (or sheds it, past the admission bound); [await] blocks the calling domain until the thunk has run.
    Tasks never run on the submitting domain, so the submitter is free
    to await in any order.

    Exceptions raised by a task are caught in the worker and carried to
    the awaiting domain through the future — a crashing task never
    takes a worker (or the pool) down.

    The pool itself holds no domain-unsafe state beyond its own queue;
    whether the {e tasks} are safe to run concurrently is the caller's
    contract: the check server serialises the requests for one BDD
    manager on that model's cache-entry lock. *)

type t

type 'a future
(** The pending result of a submitted task. *)

val create : ?max_pending:int -> int -> t
(** Spawn a pool of [n >= 1] worker domains (raises [Invalid_argument]
    otherwise).  Remember that domains are not threads: creating more
    of them than cores buys nothing, and every pool must be
    {!shutdown}.

    [max_pending] ([>= 1] when given) is the admission bound consulted
    by {!try_submit}: once that many tasks are queued (tasks already
    running on a worker do not count), further [try_submit] calls shed
    instead of enqueueing.  Default: unbounded. *)

val size : t -> int
(** Configured number of worker domains. *)

val pending : t -> int
(** Tasks currently queued and not yet picked up by a worker — the
    queue depth that {!try_submit} admissions are measured against. *)

val try_submit : t -> (unit -> 'a) -> 'a future option
(** Enqueue a task, with admission control: [None] — immediately,
    without blocking — when the pool was created with [max_pending]
    and that many tasks are already queued; an unbounded pool always
    admits.  The caller owns the shed response
    (the check server answers with a structured [overloaded] reply).
    Raises [Invalid_argument] if the pool has been shut down. *)

val is_settled : 'a future -> bool
(** Whether the task has finished (completed or failed) — a
    non-blocking probe, so long-lived submitters can prune settled
    futures instead of accumulating them forever. *)

val await : 'a future -> ('a, exn) result
(** Block until the task has run; [Error e] if it raised [e].  May be
    called from any domain, any number of times. *)

val await_exn : 'a future -> 'a
(** {!await}, re-raising the task's exception. *)

val shutdown : t -> unit
(** Drain: workers finish every already-submitted task, then exit; the
    calling domain joins them all.  Idempotent.  After shutdown the
    results of all submitted tasks are visible to the caller (the joins
    establish the happens-before edge). *)
