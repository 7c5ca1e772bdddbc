(** The warm manager pool: compiled models keyed by source hash.

    The whole point of serve mode is that the second request for a
    model skips everything expensive: parsing and compilation, BDD
    construction, the variable order the first request compiled
    with, the hot operation caches, and — via [Kripke.reach_memo] —
    the reachable-set fixpoint.  The pool maps a digest of the source
    to a compiled model whose manager carries all of that accumulated
    warmth.  No request option changes what the compiler builds, so
    the source alone is the key.

    Concurrency: a BDD manager is single-domain (hash-consing is not
    thread-safe), so each entry has a lock and requests for the same
    model serialise on it; requests for different models proceed in
    parallel on their own managers.  Entries are built {e under} the
    entry lock, not the pool lock, so a slow compile of one model
    never blocks requests for others.

    Eviction is LRU over idle entries: when the pool exceeds its
    capacity, the least-recently-released entries with no holder are
    dropped (their managers become garbage).  Busy entries are never
    evicted. *)

type t

type entry = {
  key : string;
  lock : Mutex.t;  (** hold while compiling into or checking on the entry *)
  mutable compiled : Smv.Compile.compiled option;
      (** [None] until the first holder builds it (or after a failed
          build — the next holder simply retries) *)
  mutable busy : int;       (** current holders (acquired, not released) *)
  mutable uses : int;       (** total acquisitions, for the reply stats *)
  mutable last_used : float; (** monotonic time of last release *)
  mutable clamped : bool;
      (** op-caches clamped by the memory watchdog; {!unclamp_idle}
          restores them when pressure clears *)
}

val create : capacity:int -> t
(** A pool evicting down to [capacity] idle entries
    (raises [Invalid_argument] when [capacity < 1]). *)

val digest : source:string -> string
(** The pool key for a check request. *)

val acquire : t -> key:string -> entry * bool
(** Find or insert the entry for [key]; the flag is [true] when the
    entry already held a compiled model (a {e warm} hit).  Bumps the
    holder count; the caller must lock [entry.lock] before touching
    [compiled] and must {!release} when done. *)

val release : t -> entry -> unit
(** Drop the holder count and stamp [last_used]. *)

val size : t -> int
(** Entries currently pooled (busy or idle). *)

val capacity : t -> int
(** The configured LRU capacity. *)

(** {2 Memory-pressure hooks}

    The daemon's watchdog calls these from its periodic tick.  All of
    them take the pool lock; the mutating ones additionally touch only
    {e idle} entries (no holder, and none can appear while the pool
    lock is held), so they are safe to run concurrently with checks on
    other entries. *)

val live_nodes : t -> int
(** Total live BDD nodes across all pooled managers — the watchdog's
    pressure measure.  Busy entries are read racily (a plain int
    field), which is fine for a heuristic. *)

val is_warm : t -> key:string -> bool
(** Whether a compiled model for [key] is already pooled (the
    degraded-mode admission test: cold models are refused under
    memory pressure, warm ones still served). *)

val evict_idle_until : t -> target:int -> int
(** Evict idle compiled entries, least-recently-used first, until the
    pool's total live nodes drop to [target] or no idle entry remains;
    returns how many were evicted.  Busy entries are never touched. *)

val clamp_idle : t -> limit:int -> int
(** Clamp the op-caches of every idle, not-yet-clamped manager to
    [limit] entries and run a gc on it (reclaiming dead nodes and the
    oversized caches now, not at the next insert); returns how many
    managers were clamped.  Verdict-neutral: bounded caches change
    speed and memory, never results. *)

val unclamp_idle : t -> int
(** Undo {!clamp_idle} on idle entries (restore unbounded op-caches)
    once pressure has cleared; returns how many were restored. *)

(** {2 Warm-state persistence hooks} — used by [Persist]. *)

val with_idle :
  t -> (key:string -> uses:int -> Smv.Compile.compiled -> unit) -> int
(** Call [f] on every idle, compiled entry under the pool lock (so no
    holder can appear while [f] reads the manager); returns how many
    entries were visited.  [uses] is the entry's acquisition count —
    the persistence layer's cheap dirty check.  [f] must not call back
    into the pool. *)

val seed : t -> key:string -> compiled:Smv.Compile.compiled -> bool
(** Insert a pre-compiled model (a rehydrated snapshot) under [key] if
    no entry exists yet; returns whether it was inserted.  Respects
    capacity (may evict older idle entries, like {!acquire}). *)

(** {2 Introspection} — the [Status] reply's cache section. *)

type info = {
  i_key : string;     (** pool key (digest) *)
  i_busy : int;       (** current holders *)
  i_uses : int;       (** total acquisitions *)
  i_warm : bool;      (** compiled model present *)
  i_live : int;       (** live nodes on the entry's manager *)
  i_faults : int;     (** injected faults fired on this manager *)
  i_clamped : bool;   (** op-caches currently clamped by the watchdog *)
}

val snapshot : t -> info list
(** One {!info} per pooled entry, sorted by key. *)
