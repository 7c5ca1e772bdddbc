(** Overload protection for the check server.

    The serving contract this module exists to keep: {e every} frame
    the server reads gets exactly one reply, promptly — under burst
    load, under memory pressure, and while degraded.  Three mechanisms
    share the state held here:

    {ul
    {- {b Admission accounting.}  The daemon sheds a [check] request —
       immediately, from the reader thread, never parking it — when
       the pool's pending queue is at its bound, when the connection's
       in-flight cap is reached, or when the watchdog is refusing cold
       models.  Each shed is counted by reason, and the shed reply's
       [retry_after_ms] hint comes from {!retry_after_ms}: a rolling
       mean of recent check durations scaled by how many queue slots
       stand in front of a retry.}
    {- {b The memory watchdog.}  {!watchdog} runs on the daemon's
       periodic tick and compares the warm pool's total live BDD nodes
       against the high-water mark.  Over the mark it walks a
       degradation ladder at server granularity — mirroring the
       per-request [Robust.Ladder], but trading {e warmth} instead of
       fidelity: (1) evict idle cache entries in the pool's victim
       order, (2) clamp idle managers' op-caches, clear their memos
       and gc them, (3) refuse cold-model
       admissions (warm models, [ping] and [status] are still served).
       Every level transition is logged and counted; when pressure
       clears the clamps are restored and the level returns to 0.}
    {- {b Introspection.}  {!stats} snapshots every counter for the
       [status] reply, so load balancers and CI can see queue depth,
       shed totals and the current degradation level from outside.}}

    All operations are thread-safe (one internal mutex); {!watchdog}
    additionally assumes it is called from a single thread at a time,
    which the daemon guarantees (the accept loop's select tick, or the
    stdio mode's timer thread). *)

type t

val create :
  ?mem_high_water:int -> ?log:(string -> unit) -> unit -> t
(** Fresh state.  [mem_high_water] ([>= 1]; raises [Invalid_argument]
    otherwise) enables the watchdog: total live nodes across the warm
    pool beyond this mark triggers the degradation ladder.  Omitted,
    {!watchdog} is a no-op.  [log] receives one line per level
    transition (default: stderr). *)

(** {2 Admission accounting} *)

type shed_reason =
  | Queue_full        (** pool pending queue at [max_pending] *)
  | Inflight_cap      (** connection at its in-flight cap *)
  | Memory_pressure   (** watchdog level 3 refused a cold model *)

val reason_string : shed_reason -> string
(** The wire name: ["queue"], ["inflight"], ["memory"]. *)

val shed : t -> shed_reason -> unit
(** Count one shed reply. *)

val admitted : t -> unit
(** A check passed admission (before it is queued). *)

val retract : t -> unit
(** Undo {!admitted} for a check that lost the queue-slot race and was
    shed after all. *)

val finished : t -> float -> unit
(** A check replied; the argument is its duration in seconds, fed to
    the rolling window behind {!retry_after_ms}.  Also counted in the
    [checks] status counter. *)

val inflight : t -> int
(** Checks admitted and not yet replied (queued or running). *)

val avg_check_s : t -> float option
(** Rolling mean of the last check durations; [None] before the first
    completion. *)

val retry_after_ms : t -> queue_depth:int -> workers:int -> float
(** When a shed client should retry: roughly the time for the queue
    ahead of it to clear at the rolling mean check duration —
    [mean * ceil((queue_depth+1)/workers)], in milliseconds, at least
    1.  Before any completion a 50 ms default mean is used. *)

(** {2 The memory watchdog} *)

val watchdog : t -> Cache.t -> unit
(** One tick: measure pressure, walk the ladder (see module doc).
    No-op without [mem_high_water].  Call from one thread at a time. *)

val admit_cold : t -> bool
(** False exactly at degradation level 3: a check for a model that is
    not already warm must be shed with {!Memory_pressure}. *)

val level : t -> int
(** Current degradation level, 0–3. *)

(** {2 Introspection} *)

type stats = {
  uptime_s : float;          (** since {!create} (monotonic) *)
  inflight : int;
  level : int;
  shed_queue : int;
  shed_inflight : int;
  shed_cold : int;
  evictions : int;           (** watchdog cache-entry evictions *)
  clamps : int;              (** managers whose op-caches were clamped *)
  unclamps : int;            (** clamps restored after pressure cleared *)
  transitions : int;         (** watchdog level changes *)
  checks : int;              (** checks replied ({!finished} calls) *)
  avg_check_s : float option;
}

val stats : t -> stats
(** A consistent snapshot of every counter. *)
