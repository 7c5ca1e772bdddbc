(** Durable warm state: crash-only persistence for the manager pool.

    With [--state-dir DIR] the daemon keeps one file per pooled model
    under [DIR] — [<digest>.warm], where the digest is the existing
    {!Cache.digest} pool key, and beside it [<digest>.uses], the
    entry's use count at that write (so a restored entry keeps its
    place in the pool's victim order).  Each warm file wraps a {!Bdd.Snapshot} of
    the model's manager (columns, order, roots — everything that makes
    it warm) together with the marshalled pure-data shadow of the
    compiled artifact, the whole body checksummed so a torn write or a
    flipped bit is rejected before unmarshalling.

    The discipline is crash-only:

    - writes happen on the daemon's idle-pressure watchdog tick
      ({!tick}, skipping entries unchanged since the last write) and
      on graceful shutdown ({!flush}); both are best-effort — a failed
      write logs a warning and the server keeps serving;
    - every write is atomic (temp file + rename), so the directory
      always holds complete files from {e some} point in time;
    - on startup {!rehydrate} seeds the pool from whatever valid files
      exist; anything stale, truncated, corrupt or version-mismatched
      is renamed to [*.quarantined] and counted, never fatal. *)

type t

type counters = {
  snapshots : int;    (** warm-state files successfully written *)
  restores : int;     (** pool entries rehydrated at startup *)
  quarantines : int;  (** bad files quarantined (never fatal) *)
}

val create : dir:string -> debug:bool -> t
(** Use [dir] as the state directory, creating it if missing (raises
    [Invalid_argument] if the path exists and is not a directory, or
    cannot be created).  [debug] enables warning logs on stderr. *)

val counters : t -> counters
(** Current counters (thread-safe; reported by the [Status] reply). *)

val tick : t -> Cache.t -> unit
(** Snapshot every idle pooled model whose use count changed since its
    last write.  Called from the daemon's watchdog on low-pressure
    ticks: snapshotting is pure reading (under the pool lock, so no
    holder can appear mid-dump), and skipping busy entries means a
    long check is never stalled by persistence. *)

val flush : t -> Cache.t -> unit
(** {!tick} unconditionally on shutdown paths (after a drain the whole
    pool is idle, so this persists everything). *)

val rehydrate : t -> Cache.t -> int
(** Scan the state directory and seed the pool with every valid warm
    file, each with its persisted use count (0 when its [.uses] file
    is missing or unreadable); returns how many entries were
    restored.  Invalid files are
    quarantined and counted.  Intended at daemon startup, before the
    socket starts accepting. *)

(**/**)

val save_entry :
  t -> key:string -> uses:int -> Smv.Compile.compiled -> bool
(** Write one entry now (bench / test hook); true on success. *)

val load_entry : string -> string * Smv.Compile.compiled
(** Read one warm file (bench / test hook): [(key, compiled)].
    Raises on any validation failure. *)
