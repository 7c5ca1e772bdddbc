(** Reduced ordered binary decision diagrams (ROBDDs).

    A from-scratch BDD package in the style of the one inside the SMV
    model checker: hash-consed nodes (so structural equality coincides
    with semantic equivalence), a memoised if-then-else kernel, boolean
    connectives, restriction, existential/universal quantification over
    variable cubes, the combined relational product
    [exists cube (f /\ g)], variable shifting, and satisfying-assignment
    extraction.

    Variables are non-negative integers.  Their placement on paths is
    governed by the manager's order (a var <-> level bijection): every
    path from a root visits variables in strictly increasing {e level}.
    A fresh manager uses the identity order (level = variable index);
    {!Reorder.set_order} installs another one while the manager is
    still empty, and the order never changes afterwards.  All operations on diagrams from the same manager are semantically
    pure; diagrams are maximally shared. *)

type man
(** A BDD manager: owns the unique table and the operation caches.
    Diagrams from different managers must never be mixed; doing so is a
    programming error ([Invalid_argument] is *not* guaranteed to be
    raised, because detecting it on every operation would be too
    costly). *)

type t
(** A BDD over the manager it was created from. *)

val create : ?unique_size:int -> ?cache_limit:int -> unit -> man
(** [create ()] makes a fresh manager.  [unique_size] sizes the initial
    node-store columns (rounded to a power of two, at least and by
    default 1,024 slots; the columns double as nodes arrive, and the
    per-variable open-addressing subtables start small and grow
    geometrically as nodes land in them).  Each operation cache starts
    at 256 entries (and returns there at {!clear_caches}) and doubles
    as stores accumulate.
    [cache_limit], when given, caps every operation cache at the
    largest power of two within it: the caches are direct-mapped, so at
    the cap an insert that collides with a live entry of a different
    key simply overwrites it (counted in [cache_evictions]).  Results
    never change — caches only affect sharing of work — so a limit
    trades recomputation for bounded memory.  Default: unbounded (up to
    a fixed hard cap per cache). *)

val set_cache_limit : man -> int option -> unit
(** Install ([Some n]) or remove ([None]) the operation-cache capacity
    cap; an over-cap cache shrinks immediately.  Raises
    [Invalid_argument] when [n <= 0]. *)

val cache_limit : man -> int option
(** The current operation-cache capacity cap, if bounded. *)

val cache_hard_cap : int
(** Entries per operation cache when unbounded (2^14): a manager pooled
    by the server keeps its caches for life, and past this size they
    gain few hits. *)

(** {1 Constants and variables} *)

val zero : man -> t
(** The constant false. *)

val one : man -> t
(** The constant true. *)

val var : man -> int -> t
(** [var m v] is the diagram for variable [v].  [v] must be
    non-negative; raises [Invalid_argument] otherwise. *)

val nvar : man -> int -> t
(** [nvar m v] is the negation of variable [v]. *)

(** {1 Structure} *)

val is_zero : t -> bool
val is_one : t -> bool

val id : t -> int
(** Unique id of a node; equal ids (within one manager) mean equal
    functions.  [zero] has id 0 and [one] has id 1. *)

val equal : t -> t -> bool
(** Constant-time semantic equivalence (hash-consing). *)

val compare : t -> t -> int
(** Total order on diagrams by id, for use in sets and maps. *)

val hash : t -> int

val topvar : man -> t -> int
(** Root variable of a non-constant diagram (the variable at the
    diagram's top {e level}).
    Raises [Invalid_argument] on constants. *)

val low : man -> t -> t
(** Else-branch (variable false) of a non-constant diagram. *)

val high : man -> t -> t
(** Then-branch (variable true) of a non-constant diagram. *)

(** {1 Boolean connectives} *)

val ite : man -> t -> t -> t -> t
(** [ite m f g h] is (f /\ g) \/ (~f /\ h). *)

val not_ : man -> t -> t
val and_ : man -> t -> t -> t
val or_ : man -> t -> t -> t
val xor : man -> t -> t -> t
val imp : man -> t -> t -> t
val iff : man -> t -> t -> t
val diff : man -> t -> t -> t
(** [diff m f g] is f /\ ~g. *)

val conj : man -> t list -> t
(** Conjunction of a list (true for the empty list), combined as a
    balanced tree of pairwise meets. *)

val disj : man -> t list -> t
(** Disjunction of a list (false for the empty list), combined as a
    balanced tree of pairwise joins. *)

val subset : man -> t -> t -> bool
(** [subset m f g] holds iff f implies g (as state sets: f ⊆ g).  It
    builds no node: the walk stops at the first path on which [f] holds
    and [g] does not. *)

(** {1 Restriction and quantification} *)

val restrict : man -> t -> int -> bool -> t
(** [restrict m f v b] is f with variable [v] fixed to [b]. *)

val cube : man -> int list -> t
(** [cube m vs] is the positive cube over the variables [vs]; used to
    name quantifier scopes.  Duplicates are allowed and ignored. *)

val minterm : man -> (int * bool) list -> t
(** [minterm m lits] is the conjunction of the literals [(v, b)]
    ([v] when [b], else its negation), built in one pass; false when a
    variable occurs with both values.  Raises [Invalid_argument] on a
    negative variable. *)

val exists : man -> t -> t -> t
(** [exists m cube f] existentially quantifies the variables of the
    positive cube [cube] out of [f]. *)

val forall : man -> t -> t -> t
(** [forall m cube f] universally quantifies the variables of [cube]. *)

val and_exists : man -> t -> t -> t -> t
(** [and_exists m cube f g] is [exists m cube (and_ m f g)], computed in
    one pass — the relational-product operation at the heart of symbolic
    image computation. *)

val constrain : man -> t -> t -> t
(** [constrain m f c] — the generalized cofactor (Coudert-Madre): a
    function that agrees with [f] everywhere in the care set [c] and is
    arbitrary (chosen to shrink the diagram) outside it, so that
    [c /\ constrain f c = c /\ f].  Model checkers use it to simplify
    intermediate sets against reachability invariants.  Raises
    [Invalid_argument] when [c] is the constant false. *)

(** {1 Shifting} *)

val shift : man -> t -> int -> t
(** [shift m f d] substitutes variable [v + d] for each variable [v] in
    the support of [f] (the prime/unprime of image computation),
    memoised in its own operation cache.  Correct under any variable
    order; cheapest when each target sits just below its source, as a
    level-adjacent current/next pair does.  Raises [Invalid_argument]
    when a target would be negative. *)

val cofactor_shift : man -> t -> pin:int array -> d:int -> t
(** [cofactor_shift m f ~pin ~d] fixes each variable [v] with
    [pin.(v)] = 0 or 1 to that value and renames every other variable
    [v] (those at or past [Array.length pin] included) to [v + d]: the
    [shift] of the cofactor, in one walk that builds no intermediate
    diagram.  With a state's bits pinned on the current copy and
    [d = -1], it maps the transition relation to the state's successor
    set.  Its memo lasts one call and lives on the manager; no op cache
    is probed.  Correct under any variable order.  Raises
    [Invalid_argument] when a target would be negative. *)

val least_meet : man -> t -> pin:int array -> t -> d:int -> int array -> bool
(** [least_meet m f ~pin g ~d path] looks for the least assignment, in
    level order with [false] before [true], on which [f] (each variable
    [v] with [pin.(v)] = 0 or 1 fixed to that value) and [g] (each
    variable [v] read as [v + d]) both hold.  It returns [false] when
    there is none; otherwise it sets [path.(v)] to 0 or 1 for each
    variable the found path tests and returns [true].  The caller fills
    [path] with -1 first: an untested variable keeps it and is free.
    With a state's bits pinned on the current copy of the transition
    relation and a state set as [g] with [d = 1], it reads the least
    successor inside the set off one walk.  Builds no node; its memo
    lasts one call and lives on the manager, as {!cofactor_shift}'s.
    Raises [Invalid_argument] when the walk meets a variable of [g]
    whose shift is pinned or negative, or sits above a variable the path
    has already tested (the shift does not keep [g]'s level order), or
    when [path] is too short for a variable the walk tests. *)

(** {1 Inspection} *)

val support : man -> t -> int list
(** Variables occurring in the diagram, sorted increasingly. *)

val size : ?cap:int -> man -> t -> int
(** Number of distinct internal nodes (constants not counted); with
    [~cap], counting stops past [cap] (a result above it means "more"). *)

val eval : man -> t -> (int -> bool) -> bool
(** Evaluate under an assignment. *)

val sat_count : man -> t -> int -> float
(** [sat_count m f n] is the number of satisfying assignments over the
    variable universe [{0, ..., n-1}], as a float (state spaces beyond
    2^62 still get a meaningful answer).  Every variable in the support
    of [f] must be < [n].  Takes the manager because the gap weighting
    walks the current variable order. *)

val any_sat : man -> t -> (int * bool) list
(** One satisfying {e partial} assignment (the least cube in the
    manager's order, preferring [false] branches, so it depends on the
    order {!Reorder.set_order} installed), as (variable, value) pairs
    sorted by variable.  Variables on which the cube does not depend
    (don't-cares) are {e omitted}: any completion of the returned pairs
    satisfies the diagram.  Callers that need one concrete point must
    pin the don't-cares themselves or use {!any_sat_total}.  Raises
    [Not_found] on the constant false. *)

val any_sat_total : man -> t -> vars:int list -> (int * bool) list
(** [any_sat_total m f ~vars] — one satisfying {e total} assignment over
    [vars]: the {!any_sat} cube with every unmentioned variable of
    [vars] pinned to [false] (the least satisfying point in the
    variable order).  The support of [f] must be contained in
    [vars]; raises [Invalid_argument] otherwise and [Not_found] on the
    constant false. *)

val fold_sat :
  man -> t -> int list -> init:'a -> f:('a -> bool array -> 'a) -> 'a
(** [fold_sat m f vars ~init ~f:k] folds [k] over every total
    assignment to [vars] (given as the positions of a bool array
    parallel to [vars]) that satisfies the diagram.  The support of the
    diagram must be contained in [vars].  Assignments are enumerated in
    lexicographic order of the variables {e as ranked by the manager's
    order} (with [false] < [true]); under the identity order
    that is lexicographic in the given list. *)

val count_nodes : man -> int
(** Number of nodes ever created in the manager (allocation counter;
    not decreased by {!gc}). *)

val live_nodes : man -> int
(** Number of nodes currently in the unique table. *)

val clear_caches : man -> unit
(** Drop the operation caches (the unique table is kept, so canonicity
    is unaffected).  Useful between phases of a long run. *)

(** {1 Statistics} *)

type op_stats = {
  calls : int;   (** recursive invocations, terminal cases included *)
  hits : int;    (** operation-cache hits *)
  misses : int;  (** operation-cache misses *)
}

type stats = {
  ite : op_stats;
  exists : op_stats;
  forall : op_stats;
  relprod : op_stats;  (** {!and_exists}, the relational product *)
  constrain : op_stats;
  shift : op_stats;       (** {!shift} *)
  live_nodes : int;       (** current unique-table size *)
  peak_nodes : int;       (** largest unique-table size so far *)
  total_nodes : int;      (** nodes ever allocated *)
  cache_evictions : int;  (** direct-mapped cache entries overwritten by a
                              colliding store with a different key *)
  gc_runs : int;
  gc_collected : int;     (** nodes swept across all {!gc} runs *)
  cache_stores : int;     (** operation-cache insertions across the six
                              caches; hit rate = hits / (hits + misses),
                              overwrite rate = evictions / stores *)
  unique_lookups : int;   (** unique-table find-or-insert operations *)
  unique_probes : int;    (** slots inspected across those lookups; mean
                              probe length = probes / lookups *)
  store_capacity : int;   (** allocated node-store column slots *)
  unique_capacity : int;  (** open-addressing slots across all per-variable
                              subtables; load factor =
                              live_nodes / unique_capacity *)
  store_words : int;      (** words the manager's arrays hold: the three
                              node columns ([3 * store_capacity]), the
                              unique subtables ([unique_capacity]) and
                              the operation caches *)
}
(** A snapshot of the manager's counters. *)

val stats : man -> stats
(** Snapshot the counters (cheap; safe to call on the hot path). *)

val cache_hits : stats -> int
(** Total cache hits across the six operation caches. *)

val cache_misses : stats -> int
(** Total cache misses across the six operation caches. *)

val diff_stats : stats -> stats -> stats
(** [diff_stats after before] — the work done between two snapshots of
    the {e same} manager: monotone counters (calls, hits, misses,
    evictions, gc, [total_nodes]) are subtracted, while the
    instantaneous readings [live_nodes] and [peak_nodes] are taken from
    [after].  This is how a long-lived (warm) manager attributes its
    counters to exactly one request: snapshot on entry, diff on exit.
    Combine with {!reset_peak} when the region's own peak (rather than
    the manager's lifetime peak) is wanted. *)

val reset_peak : man -> unit
(** Restart the [peak_nodes] high-water mark from the current
    unique-table size, leaving every other counter untouched — so the
    next {!stats} snapshot reports the peak {e since this call}. *)

val now_monotonic : unit -> float
(** Seconds on [CLOCK_MONOTONIC] (falling back to the calendar clock
    only where the monotonic clock is unavailable).  All durations and
    deadlines in this package ({!Limits} budgets) are measured on this clock, so an NTP step can neither spuriously
    breach nor extend a budget.  Only differences between two readings
    are meaningful. *)

val reset_stats : man -> unit
(** Zero every counter; [peak_nodes] restarts from the current
    unique-table size.  Root registrations and caches are untouched. *)

val pp_stats : Format.formatter -> stats -> unit
(** Multi-line human-readable rendering (the [--stats] output). *)

(** {1 Garbage collection}

    The manager never frees nodes on its own: the unique table grows
    monotonically.  {!gc} sweeps it down to the nodes reachable from
    {e registered roots}.  Any diagram a client intends to keep using
    across a [gc] MUST be reachable from some root when [gc] runs —
    using an unrooted survivor afterwards is unsound, because a later
    recomputation would build a fresh node for the same function and
    structural equality would no longer coincide with semantic
    equivalence.  [Kripke.make] registers the model's BDDs
    automatically, and the fixpoint engines root their in-flight
    frontiers, so with those layers only {e extra} long-lived sets
    (saved satisfaction sets, witnesses under construction) need
    explicit roots. *)

type root
(** Handle for a registered root provider. *)

val add_root : man -> (unit -> t list) -> root
(** [add_root m provider] registers a callback yielding diagrams that
    must survive collection; it is invoked at every {!gc}, so it may
    return different (e.g. freshly updated) diagrams each time. *)

val remove_root : man -> root -> unit
(** Unregister a root; unknown handles are ignored. *)

val with_root : man -> (unit -> t list) -> (unit -> 'a) -> 'a
(** [with_root m provider k] runs [k] with [provider] registered,
    unregistering on exit (normal or exceptional). *)

val gc : man -> int
(** Mark from every registered root and sweep unreachable nodes out of
    the unique table; swept store slots go on a free list for reuse by
    later node construction (handles of survivors are untouched — the
    store is swept, never compacted).  The operation caches are dropped
    (they may hold swept handles whose slots will be recycled).
    Returns the number of nodes collected. *)

(** {1 The variable order}

    A manager's order is fixed for its life: {!Reorder.set_order}
    installs one on the empty manager (the SMV compiler's one call,
    before any node exists), and nothing moves it afterwards. *)

module Reorder : sig
  val order : man -> int array
  (** The order as the array of every variable created so far, from
      level 0 down; a fresh copy, safe to mutate. *)

  val set_order : man -> int array -> unit
  (** [set_order m ord] installs [ord] (a permutation of [0..n-1],
      where [n] is at least the number of variables created so far;
      a longer array pre-creates the extra variables) on a manager
      that has no live node yet.  Raises
      [Invalid_argument] if the manager already has nodes, or if [ord]
      is not a permutation or is too short. *)

  val with_checkpoints : man -> (unit -> 'a) -> 'a
  (** [with_checkpoints m k] is [k ()].  Kept only for
      [perfbench/probe.ml], which wraps its verdict phase in it and
      must build unchanged against every version it measures. *)
end

(** {1 Resource governance}

    No call into the BDD package (or the checking layers built on it)
    may run forever or exhaust memory silently: a {!Limits.t} carries an
    optional wall-clock deadline, a live-node budget, a coarse-grained
    step budget, and a cooperative-cancellation flag.  Once
    {!Limits.attach}ed to a manager it is polled from the hot operation
    loops (ite / quantification / relational product) every few thousand
    cache probes — measured overhead is well under 2% — and the fixpoint
    and ring-descent engines additionally charge their iterations
    against the step budget through {!Limits.step} / {!Limits.ring_step}.
    A breach raises the single structured exception {!Limits.Exhausted}
    carrying which budget tripped, a {!stats} snapshot, and the partial
    progress recorded so far, so callers can report a truncated result
    instead of hanging or crashing.

    Limits never affect results: a run that completes under limits
    returns exactly what the un-governed run returns, and after a breach
    the manager remains fully usable (hash-consing canonicity is
    unaffected; in-flight roots are unwound by [Fun.protect]). *)

module Limits : sig
  type t
  (** A budget bundle.  Mutable: it accumulates consumed steps and
      partial progress, so use a fresh value per governed call (e.g. per
      specification) unless a shared budget is intended. *)

  (** Which budget tripped. *)
  type breach =
    | Deadline of { timeout : float; elapsed : float }
        (** wall-clock: [timeout] seconds requested, [elapsed] spent *)
    | Node_budget of { budget : int; live : int }
        (** live unique-table nodes exceeded the budget *)
    | Step_budget of { budget : int; steps : int }
        (** fixpoint-iteration / ring-descent steps exceeded the budget *)
    | Interrupted  (** {!cancel} was called (e.g. from a SIGINT handler) *)

  type progress = {
    steps : int;       (** budgeted steps consumed *)
    iterations : int;  (** fixpoint iterations completed *)
    rings : int;       (** ring-descent segments completed *)
    witness_prefix : bool array list;
        (** best-so-far witness path (states as [Kripke.state]-encoded
            bit arrays); empty unless witness construction had begun *)
  }
  (** Partial progress at the moment of the breach. *)

  type info = { breach : breach; stats : stats; progress : progress }

  exception Exhausted of info
  (** The single structured resource-limit exception. *)

  val create :
    ?timeout:float ->
    ?node_budget:int ->
    ?step_budget:int ->
    ?cancel:bool Atomic.t ->
    unit ->
    t
  (** [create ()] makes a budget bundle; omitted budgets are unlimited.
      [timeout] is in seconds, measured from [create] on the monotonic
      clock ({!Bdd.now_monotonic}) — a calendar-clock step (NTP, a
      sysadmin's date change) can neither breach nor extend it.
      [cancel] supplies the cancellation flag instead of a fresh one,
      so several bundles (e.g. one per specification) can share a
      single flag: one [Atomic.set] cancels them all, which is how
      SIGINT stops a run.  Raises [Invalid_argument] on
      non-positive budgets. *)

  val unlimited : unit -> t
  (** No budgets — still cancellable, which is how SIGINT handling
      works on runs without explicit limits. *)

  val cancel : t -> unit
  (** Request cooperative cancellation: the next poll point raises
      {!Exhausted} with {!breach} [Interrupted].  The flag is an
      [Atomic.bool], so the request is visible across domains (a plain
      mutable bool would carry no such guarantee), and setting it is
      async-signal-safe, so it may be called from a signal handler. *)

  val cancelled : t -> bool

  val attach : man -> t -> unit
  (** Install the limits on a manager: the BDD operation loops start
      polling it.  At most one limits value is attached at a time; a
      second [attach] replaces the first. *)

  val detach : man -> unit
  val attached : man -> t option

  val with_attached : man -> t -> (unit -> 'a) -> 'a
  (** [with_attached m l k] runs [k] with [l] attached, restoring the
      previously attached limits (if any) on exit — normal or
      exceptional. *)

  val check : man -> t -> unit
  (** Check every budget right now; raises {!Exhausted} on a breach.
      The explicit form of the poll the hot loops run implicitly. *)

  val step : man -> t -> unit
  (** Charge one fixpoint iteration against the step budget, then
      {!check}.  Called by the [Ctl] / [Kripke] / [Ctlstar] fixpoint
      loops once per iteration. *)

  val ring_step : man -> t -> unit
  (** Charge one ring-descent segment against the step budget, then
      {!check}.  Called by [Counterex.Witness] while walking rings. *)

  val note_witness : t -> bool array list -> unit
  (** Record the best-so-far witness path so a later breach reports it
      in {!progress}. *)

  val progress : t -> progress
  (** Snapshot the progress counters (also available without a breach). *)

  val elapsed : t -> float
  (** Seconds since [create]. *)

  val pp_breach : Format.formatter -> breach -> unit
  (** One-line rendering, e.g. ["timeout after 1.02s (limit 1s)"]. *)
end

(** {1 Deterministic fault injection}

    Chaos-testing support: arm a manager to fail at the Nth visit to a
    chosen site, so every recovery path (retry ladders, breach
    handling) is exercisable in CI deterministically rather than
    only under real memory pressure.  A fault is {e one-shot}: it
    disarms itself at the moment it fires, so the attempt that retries
    after recovery runs clean.  Disarmed cost is a single field
    load-and-branch per site visit — unmeasurable (bench E12 tracks
    it).

    Sites [Mk] / [Cache_probe] / [Gc] raise [Out_of_memory] when they
    fire — the same exception genuine allocation pressure at that site
    would surface, so recovery code cannot distinguish injected from
    real faults.  Site [Step] instead trips the attached deadline: the
    Nth {!Limits.step} raises {!Limits.Exhausted} with a [Deadline]
    breach carrying the usual stats snapshot and partial progress. *)

module Fault : sig
  type site =
    | Mk           (** node construction (the unique-table insert path) *)
    | Cache_probe  (** operation-cache lookup *)
    | Gc           (** entry to {!gc} *)
    | Step         (** fixpoint-iteration charge ({!Limits.step}) *)

  val arm : man -> site:site -> after:int -> unit
  (** [arm m ~site ~after:n] makes the [n]-th subsequent visit to
      [site] fail ([n >= 1]; raises [Invalid_argument] otherwise).
      Re-arming replaces any previously armed fault — at most one is
      armed per manager. *)

  val disarm : man -> unit
  (** Remove the armed fault, if any. *)

  val armed : man -> (site * int) option
  (** The armed site and its remaining countdown, if any. *)

  val fired : man -> int
  (** How many injected faults this manager has fired so far. *)

  val site_to_string : site -> string
  (** ["mk"] / ["probe"] / ["gc"] / ["step"] — the
      [--inject] spelling. *)

  val site_of_string : string -> site option
  (** Inverse of {!site_to_string}; [None] on unknown names. *)
end

val pp : Format.formatter -> t -> unit
(** Debug printer: [false], [true], or [<bdd #id>].  Handles are plain
    ids, so no manager is needed (or available) to render one. *)

val to_dot : ?name:(int -> string) -> man -> t -> string
(** Graphviz rendering; [name] maps variable indices to labels. *)

module Snapshot : sig
  (** Versioned, checksummed binary snapshots of a manager's packed
      node store: columns, free list, var/level permutation, and the
      flattened registered roots.  Unique
      subtables and operation caches are {e derived} state and never
      travel — {!load} rebuilds them from scratch, re-proving the
      canonical invariants for every node, so a snapshot can never
      import a corrupted table.  Handles are preserved bit-for-bit:
      any [t] valid against the dumped manager is valid against the
      loaded one. *)

  exception Corrupt of string
  (** Raised by {!load} / {!restore} on any validation failure: bad
      magic or version, checksum mismatch, truncation, or a violated
      store invariant (duplicate node, child above its level, broken
      free list, slot-accounting mismatch). *)

  val dump : man -> string
  (** Serialise the manager.  The manager is read, not mutated — in
      particular no GC runs, so unrooted intermediate nodes survive
      into the snapshot and a restored manager re-finds them instead
      of re-creating them. *)

  val load : string -> man
  (** Rebuild a manager from {!dump} output.  The restored manager
      carries one static root pinning every handle the dumped
      manager's root providers reached; op-caches start empty.
      @raise Corrupt on any validation failure. *)

  val save : man -> path:string -> unit
  (** {!dump} to [path] atomically (temp file + rename), so a crash
      mid-write can never leave a torn snapshot under [path]. *)

  val restore : path:string -> man
  (** {!load} the file at [path].
      @raise Corrupt on validation failure, [Sys_error] if unreadable. *)
end
