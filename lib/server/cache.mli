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

    Each entry also keeps one fixpoint memo for its model's life
    ({!memo}, a [Counterex.Explain.memo]): every request on the entry
    decides and explains through it, so a warm repeat re-runs none of
    the fixpoints, and none of the fair lassos, an earlier request
    ran.  The memo goes with the entry when it is evicted, and
    {!clamp_idle} clears it before its gc.  [--state-dir] does not
    persist it.

    Victim order.  Every eviction path — capacity on {!acquire},
    settling on {!release}, {!seed} and the watchdog's
    {!evict_idle_until} — takes idle entries in one order: entries used
    at most once first, then the least GreedyDual credit, then the
    least recently released.  An entry's [cost] is the BDD nodes its
    compiling request allocated ([Bdd.count_nodes] when
    {!after_request} first sees it compiled; for a restored entry, the
    live nodes of its rehydrated manager at {!seed}, which is what the
    rehydration allocated), plus 1,024 for the part of a compile that
    allocates no nodes: a deterministic measure of what evicting it
    throws away.  Each release sets the entry's
    [credit] to the pool's [floor] plus its cost, and evicting a reused
    entry raises the floor to that entry's credit.  So the cheapest
    model to rebuild goes first, and a costly model that stops being
    asked for still leaves once cheaper evictions have raised the floor
    past its credit.  With equal costs the order is least recently
    released.

    Scan resistance.  {!acquire} only makes room among the once-used,
    so a stream of one-off sources cannot push out models that are
    asked for again; {!release} settles the pool back to capacity, so
    the one-off source usually evicts itself.  The pool remembers the
    keys of the last [capacity] once-used entries it evicted: such a
    key that comes back enters as a reused entry, so a model that
    becomes hot once the pool is full of reused ones is pooled from
    its third request, and its release evicts the entry of least
    credit.  Busy entries are never evicted, so the pool exceeds its
    capacity while more entries than that are held.

    Collection at release.  A pooled manager never frees nodes on its
    own, so a model kept warm would also keep the garbage of every
    request it served.  {!after_request}, run under the entry lock
    once the reply is built, collects a manager that stays pooled (used
    more than once) when it holds more than twice the live nodes its
    last collection left, and at least 4,096: a [Bdd.gc] with the
    memo rooted, keys included ([Counterex.Explain.roots]), so the memo
    survives it and the next warm hit still re-runs nothing.  The gc
    drops the manager's op caches. *)

type t

type entry = {
  key : string;
  lock : Mutex.t;  (** hold while compiling into or checking on the entry *)
  mutable compiled : Smv.Compile.compiled option;
      (** [None] until the first holder builds it (or after a failed
          build — the next holder simply retries) *)
  mutable memo : Counterex.Explain.memo option;
      (** the model's fixpoint memo, opened by {!memo} *)
  mutable busy : int;       (** current holders (acquired, not released) *)
  mutable uses : int;
      (** total acquisitions (counted on from its persisted count for
          a restored entry, from one for a remembered key): the reply
          stats and the victim order *)
  mutable last_used : float; (** monotonic time of last release *)
  mutable clamped : bool;
      (** op-caches clamped by the memory watchdog; {!unclamp_idle}
          restores them when pressure clears *)
  mutable cost : int;
      (** BDD nodes its compiling request allocated, plus 1,024; 0
          until charged *)
  mutable credit : int;  (** pool floor + cost, set on every release *)
  mutable kept : int;    (** live nodes its last collection left *)
}

val create : capacity:int -> t
(** A pool evicting down to [capacity] idle entries
    (raises [Invalid_argument] when [capacity < 1]). *)

val digest : source:string -> string
(** The pool key for a check request. *)

val acquire : t -> key:string -> entry * bool
(** Find or insert the entry for [key]; the flag is [true] when the
    entry already held a compiled model (a {e warm} hit).  Bumps the
    holder and use counts (a new entry for a remembered key starts at
    one use, not zero), then evicts idle entries used at most once
    while the pool is over capacity.  The caller must lock
    [entry.lock] before touching [compiled] or {!memo} and must
    {!release} when done. *)

val release : t -> entry -> unit
(** Drop the holder count, stamp [last_used], set [credit] to the
    floor plus [cost], and evict idle entries in victim order (the
    released one included) until the pool is back at capacity. *)

val after_request : t -> entry -> unit
(** The pool's work once a request's reply is built, under
    [entry.lock] and before {!release}: charge the entry's [cost] if
    it has none yet, then {!collect} it if it was used more than once
    and its manager holds at least 4,096 live nodes and more than
    twice [kept].  A no-op on an entry with nothing compiled.  The
    daemon and E14 both call it, so they run one policy. *)

val collect : t -> entry -> int
(** [Bdd.gc] on the entry's manager with its memo (keys included) and
    the compiled clusters rooted; updates [kept] and the pool's
    collection counters and returns the nodes freed (0 when nothing is
    compiled).  Call it under [entry.lock].  Verdict-neutral: the memo
    stays valid and the model's own diagrams are rooted. *)

val memo : entry -> Counterex.Explain.memo
(** The fixpoint memo of the entry's compiled model, opened on first
    use (raises [Invalid_argument] when nothing is compiled).  Call it
    under [entry.lock]. *)

val size : t -> int
(** Entries currently pooled (busy or idle). *)

val capacity : t -> int
(** The configured capacity. *)

val credit_floor : t -> int
(** The pool's GreedyDual floor: the credit of the last reused entry
    evicted (0 before any). *)

val collections : t -> int * int
(** [(collections, nodes)]: how many collections {!after_request} (or
    a direct {!collect}) ran since the pool was created, and the nodes
    they freed. *)

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
(** Evict idle compiled entries, in victim order, until the pool's
    total live nodes drop to [target] or no idle entry remains;
    returns how many were evicted.  Busy entries are never touched. *)

val clamp_idle : t -> limit:int -> int
(** Clamp the op-caches of every idle, not-yet-clamped manager to
    [limit] entries, clear its memo and run a gc on it (reclaiming the
    memo's sets, dead nodes and the oversized caches now, not at the
    next insert); returns how many managers were clamped.
    Verdict-neutral: bounded caches and a cleared memo change speed
    and memory, never results. *)

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

val seed : t -> key:string -> uses:int -> compiled:Smv.Compile.compiled -> bool
(** Insert a pre-compiled model (a rehydrated snapshot) under [key]
    with the use count it was persisted with, if no entry exists yet;
    returns whether it was inserted.  The entry's [cost] comes from its
    manager's live nodes (its [Bdd.count_nodes], persisted with the
    snapshot, counts every request it served) and its credit is the
    floor plus that.  Settles the pool back to
    capacity in victim order, like {!release}. *)

(** {2 Introspection} — the [Status] reply's cache section. *)

type info = {
  i_key : string;     (** pool key (digest) *)
  i_busy : int;       (** current holders *)
  i_uses : int;       (** total acquisitions *)
  i_warm : bool;      (** compiled model present *)
  i_live : int;       (** live nodes on the entry's manager *)
  i_faults : int;     (** injected faults fired on this manager *)
  i_clamped : bool;   (** op-caches currently clamped by the watchdog *)
  i_memo_sets : int;  (** formula sets in the entry's memo *)
  i_memo_layers : int;  (** ring layers in the entry's memo *)
  i_cost : int;       (** nodes its compiling request allocated *)
  i_credit : int;     (** its GreedyDual credit *)
}

val snapshot : t -> info list
(** One {!info} per pooled entry, sorted by key. *)
