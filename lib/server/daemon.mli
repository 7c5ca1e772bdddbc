(** The check server: a long-running request loop over warm managers.

    [serve] accepts framed {!Protocol} requests on standard input /
    output or a Unix-domain socket, schedules each check on a
    {!Parallel.Pool} worker domain, and writes one reply frame per
    request.  Models are compiled once into the warm {!Cache} pool
    and reused across requests, so a repeat check skips parsing, BDD
    construction, variable ordering and (via the model's memoised
    reachable set) the reachability fixpoint.

    Isolation guarantees:
    {ul
    {- every request carries its own cancellation atomic — a
       ["cancel"] frame or a client disconnect stops {e that} request
       at its next poll point and nothing else;}
    {- every request runs inside the {!Engine}'s recovery ladder with
       its own [Bdd.Limits] bundle, so a tripped budget or an
       injected fault yields an UNDETERMINED verdict in the reply —
       never a dead server;}
    {- requests for the same model serialise on the model's cache
       entry (BDD managers are single-domain); requests for different
       models run concurrently on different workers;}
    {- SIGINT / SIGTERM and the ["shutdown"] op mean {e drain}: stop
       reading, let in-flight checks finish and reply, then exit —
       in-flight work is not cancelled.}}

    Overload protection (all off by default — an option-less config
    behaves exactly like the pre-protection server):
    {ul
    {- [max_pending] bounds the pool's task queue and [max_inflight]
       caps one connection's concurrent checks; past either bound a
       check is shed {e immediately} from the reader thread with a
       structured ["overloaded"] reply carrying the queue depth and a
       [retry_after_ms] hint — every frame still gets exactly one
       reply, at any load;}
    {- [default_timeout] / [default_node_limit] give budget-less
       requests the server's budgets, and [max_timeout] clamps
       whatever timeout wins (request budgets below the ceiling are
       honoured as-is);}
    {- [mem_high_water] arms the {!Overload} memory watchdog: on the
       daemon's periodic tick it measures total live BDD nodes across
       the warm pool and, over the mark, evicts idle models, clamps
       idle op-caches, and finally refuses cold-model admissions;}
    {- the ["status"] op (and the {!status_client} one-shot) reports
       all of it — answered inline by the reader, never queued behind
       checks.}} *)

type config = {
  socket : string option;
      (** listen on this Unix-domain socket path; [None] serves one
          connection on stdin/stdout *)
  jobs : int;      (** worker domains checking requests, [>= 1] *)
  capacity : int;  (** warm models kept in the pool, [>= 1] *)
  debug : bool;    (** include backtraces in error replies *)
  max_pending : int option;
      (** bound on queued (not yet running) checks, [>= 1]; [None] =
          unbounded, the pre-protection behaviour *)
  max_inflight : int option;
      (** per-connection cap on concurrent checks, [>= 1]; [None] =
          uncapped *)
  default_timeout : float option;
      (** seconds, applied to requests that name no [timeout] *)
  default_node_limit : int option;
      (** applied to requests that name no [node_limit] *)
  max_timeout : float option;
      (** ceiling clamping every request's timeout, its own or the
          default *)
  mem_high_water : int option;
      (** live-node mark arming the memory watchdog; [None] = off *)
  state_dir : string option;
      (** directory for durable warm-state snapshots ({!Persist});
          [None] = no persistence *)
  crash_after : int option;
      (** the [child-crash:K] fault site: SIGKILL this process after
          the [K]-th check reply (supervision testing); [None] = off *)
  restarts : int;
      (** how many times the supervisor has restarted this serve loop
          (reported by the status op); [0] when unsupervised *)
}

val apply_defaults : config -> Engine.options -> Engine.options
(** The server-side budget rule, exposed for tests: fill in
    [default_timeout] / [default_node_limit] where the request named
    none, then clamp the winning timeout to [max_timeout]. *)

val serve : config -> int
(** Run until shutdown; the returned exit code is [0] after a clean
    drain, [3] on a setup failure (unusable socket path — including a
    path occupied by a non-socket file, which is {e not} replaced —
    or bad config).  With [state_dir] set, warm models are rehydrated
    before serving, snapshotted on idle watchdog ticks, and flushed on
    graceful exit. *)

val bind_socket : path:string -> (Unix.file_descr, string) result
(** Claim [path] and return a listening fd: unlink a stale socket left
    by a dead process (logging, never silently swallowing, an unlink
    failure), refuse to replace a non-socket, then bind + listen.
    Used directly by the {!Supervise}d parent, which must hold the fd
    across child restarts. *)

val serve_fd : config -> path:string -> listen_fd:Unix.file_descr -> int
(** Run the serve loop on an already-listening fd (a supervised
    child).  Identical to the socket branch of {!serve} except that
    the fd is inherited and the socket path is {e not} unlinked on
    exit — the supervisor owns both. *)

val status_client : socket:string -> int
(** One-shot health probe: connect to a serving daemon's socket, send
    [{"op":"status"}], print the reply payload on stdout.  Exit code
    [0], or [3] when the daemon cannot be reached. *)
