(* Reduced ordered BDDs with hash-consing and memoised operations, over
   an unboxed int-packed node store.

   Representation.  A diagram handle [t] is an [int]: 0 is the constant
   false, 1 the constant true, and any index >= 2 names a slot in the
   manager's struct-of-arrays columns [n_var]/[n_lo]/[n_hi].  A node is
   therefore three adjacent-by-index array cells, not a boxed record:
   the OCaml GC never traverses the store, [mk] allocates nothing on
   the OCaml heap, and a cofactor read is one bounds-checked array
   load.  Free slots (after [gc]) carry [n_var = -1] and are threaded
   into a free list through [n_lo].

   The unique table is open addressing, split per variable: each
   variable owns a power-of-two slot array probed linearly (-1 empty),
   grown geometrically at 3/4 load with a full rehash.  No entry is
   ever removed in place: [gc] rebuilds each subtable from its
   survivors, so a probe chain ends at the first empty slot.

   The six operation caches (ite / exists / forall / relprod /
   constrain / shift) are direct-mapped int-packed arrays: one slot per hash,
   a probe is one multiply and 3-4 array reads, and an insert that
   lands on a live entry with a different key simply overwrites it
   (counted as an eviction).  This replaces the boxed scheme's
   tuple-keyed hash tables with whole-table reset eviction: results
   never change — caches only affect sharing of work — so a displaced
   entry merely forces recomputation.  [ite] keys its cache by a
   standard triple (see [ite]), so equivalent calls share an entry.
   Three walks probe no op cache: [cofactor_shift], [subset] and
   [least_meet] memoise through one per-call table on the manager (see
   [memo]).

   A fresh manager is small: 1,024 column slots and 256 entries per
   cache, about 8K words.  Both grow with use (the columns double when
   full, a cache once its stores outrun its size), so a one-variable
   model does not pay to touch the pages a 100K-node model needs.

   Invariants maintained by [mk]:
   - ordering: on every path from the root, variable *levels* strictly
     increase (the manager holds a var <-> level bijection, installed
     once by [Reorder.set_order] on the empty manager and fixed for the
     manager's life; with the default identity order, levels coincide
     with variable indices);
   - reduction: no node has [low == high], and no two distinct nodes
     of the same variable have the same (low, high) pair (per-variable
     unique subtables).

   Under these invariants structural identity is semantic equivalence,
   so [equal] is constant-time and operation caches are keyed directly
   by handles.

   Garbage collection is mark-and-sweep over the columns with
   free-list reuse, NOT compaction: handles are immediate ints copied
   into arbitrary client structures, so they cannot be rewritten —
   exactly the contract the boxed store had (ids of surviving nodes
   are stable across [gc]).  Swept indices are recycled by later
   [mk]s; the operation caches are dropped at every sweep so a stale
   cached handle can never escape into a recycled slot. *)

type t = int (* 0 = false, 1 = true, >= 2 = index into the columns *)

(* Per-operation counters, updated in place on the hot path. *)
type opstat = {
  mutable calls : int;
  mutable hits : int;
  mutable misses : int;
}

let fresh_opstat () = { calls = 0; hits = 0; misses = 0 }

(* The time base for every duration and deadline in the package.  The
   monotonic clock cannot jump: an NTP step (or a sysadmin's date(1))
   moves [Unix.gettimeofday] arbitrarily far in either direction, which
   would spuriously breach — or silently extend — a wall-clock budget
   measured against it.  Deadlines are *relative* quantities, so they
   belong on CLOCK_MONOTONIC (the C stub falls back to the calendar
   clock only on platforms without one). *)
external now_monotonic : unit -> float = "bdd_monotonic_now"

(* Public (immutable) snapshots of the counters; declared before [man]
   so the resource-governance exception below can carry one. *)
type op_stats = { calls : int; hits : int; misses : int }

type stats = {
  ite : op_stats;
  exists : op_stats;
  forall : op_stats;
  relprod : op_stats;
  constrain : op_stats;
  shift : op_stats;
  live_nodes : int;
  peak_nodes : int;
  total_nodes : int;
  cache_evictions : int;
  gc_runs : int;
  gc_collected : int;
  cache_stores : int;
  unique_lookups : int;
  unique_probes : int;
  store_capacity : int;
  unique_capacity : int;
  store_words : int;
}

(* ------------------------------------------------------------------ *)
(* Resource governance: deadlines, node budgets, step budgets, and
   cooperative cancellation.

   A [limits] record is attached to a manager; the hot operation loops
   poll it every [poll_interval] cache probes (a countdown decrement
   per probe, one wall-clock read per interval), and the fixpoint /
   ring-descent layers charge their coarse-grained steps explicitly.
   The record is defined here, before [man], because the manager holds
   the attached instance; the public face is the [Limits] submodule
   below. *)

type limits_breach =
  | Deadline of { timeout : float; elapsed : float }
  | Node_budget of { budget : int; live : int }
  | Step_budget of { budget : int; steps : int }
  | Interrupted

type limits_progress = {
  steps : int;
  iterations : int;
  rings : int;
  witness_prefix : bool array list;
}

type limits = {
  started : float;            (* [now_monotonic] at creation *)
  timeout : float option;     (* requested duration, seconds *)
  deadline : float option;    (* absolute monotonic: started +. timeout *)
  node_budget : int option;   (* max live (unique-table) nodes *)
  step_budget : int option;   (* max fixpoint + ring-descent steps *)
  mutable l_steps : int;      (* budgeted steps consumed *)
  mutable l_iterations : int; (* fixpoint iterations completed *)
  mutable l_rings : int;      (* ring-descent segments completed *)
  mutable l_witness : bool array list;  (* best-so-far witness prefix *)
  cancelled : bool Atomic.t;
      (* cooperative-cancellation flag.  Atomic, not a plain mutable
         bool: cancellation is requested from outside the domain that
         owns the manager (a signal handler in the main domain, a
         server thread cancelling a request on a worker domain), and a
         plain field written by one domain has no visibility guarantee
         in another.  The flag may be shared between several bundles
         (one per spec) so a single store cancels them all. *)
}

(* Deterministic fault injection (public face: the [Fault] submodule).
   An armed fault names a site and a countdown; the matching hook
   decrements it and, at zero, disarms itself and raises.  One-shot by
   construction: a retry attempt after a recovery never re-trips the
   same injection.  Defined before [man] because the manager carries
   the armed fault. *)

type fault_site = Mk | Cache_probe | Gc | Step

type fault = { f_site : fault_site; mutable f_remaining : int }

(* One variable's unique subtable: a power-of-two slot array of node
   indices probed linearly, -1 marking an empty slot.  The key of a
   stored node is its (n_lo, n_hi) pair, read back from the columns —
   the table itself holds only indices. *)
type sub = {
  mutable s_slots : int array;
  mutable s_count : int; (* live entries *)
}

(* One direct-mapped operation cache: [c_stride] ints per entry (the
   key's 2 or 3 handles followed by the result), one entry per hash
   value.  An empty entry has key word -1 (valid handles are >= 0).
   The array doubles (up to the manager's cap) when enough stores have
   accumulated since the last resize, and [clear_caches] drops it back
   to the initial size — the packed analogue of [Hashtbl.reset]. *)
type cache = {
  c_stride : int;
  mutable c_data : int array;
  mutable c_mask : int; (* entries - 1, entries a power of two *)
  mutable c_stores : int; (* total stores (monotone) *)
  mutable c_over : int; (* stores that displaced a live entry *)
  mutable c_since : int; (* stores since the last resize/clear *)
}

(* The per-call memo of the walks that keep nothing in the op caches
   ([cofactor_shift], [subset], [least_meet]): open addressing over
   (key, key) pairs, four ints per slot (stamp, key1, key2, value).  A
   slot belongs to the running walk iff its stamp is the current
   generation, so starting a walk is one increment, not a clear.  The
   table doubles at 3/4 load and never shrinks, so it stays as large as
   the largest walk the manager has run: for [cofactor_shift], the
   nodes of the transition relation. *)
type memo = {
  mutable mm_data : int array;
  mutable mm_mask : int; (* slots - 1, slots a power of two *)
  mutable mm_gen : int;  (* stamp of the running walk *)
  mutable mm_count : int; (* slots the running walk has filled *)
}

type man = {
  (* --- the node store: struct-of-arrays columns --- *)
  mutable n_var : int array; (* variable, or -1 for a free slot *)
  mutable n_lo : int array;  (* else-child; free-list next when free *)
  mutable n_hi : int array;  (* then-child *)
  mutable n_cap : int;       (* column capacity (doubles on demand) *)
  mutable n_next : int;      (* allocation watermark (indices 0/1 reserved) *)
  mutable free_head : int;   (* head of the free list, or -1 *)
  mutable total_created : int; (* nodes ever allocated *)
  (* Unique tables, one per variable, keyed by (low, high). *)
  mutable subs : sub array;
  mutable nvars : int;         (* variables ever mentioned *)
  mutable var2lvl : int array; (* variable -> level, a permutation *)
  mutable lvl2var : int array; (* level -> variable, its inverse *)
  mutable live : int; (* total nodes across the subtables *)
  ite_cache : cache;
  exists_cache : cache;
  forall_cache : cache;
  relprod_cache : cache;
  constrain_cache : cache;
  shift_cache : cache;
  memo : memo;
  mutable cache_limit : int;
      (* requested per-cache entry bound; [max_int] means unbounded *)
  mutable cache_cap : int;
      (* realised per-cache capacity cap: the largest power of two
         within [cache_limit], or the hard cap when unbounded *)
  mutable evictions : int;
  mutable unique_lookups : int; (* unique-table find-or-insert probes *)
  mutable unique_probes : int;  (* slots inspected across all lookups *)
  mutable peak_nodes : int;
  mutable gc_runs : int;
  mutable gc_collected : int;
  ite_stat : opstat;
  exists_stat : opstat;
  forall_stat : opstat;
  relprod_stat : opstat;
  constrain_stat : opstat;
  shift_stat : opstat;
  roots : (int, unit -> t list) Hashtbl.t;
  mutable next_root : int;
  mutable limits : limits option;
      (* the attached governance record, polled from the hot loops *)
  mutable poll_countdown : int;
      (* cache probes until the next full limits check *)
  mutable fault : fault option;
      (* armed fault injection, if any (chaos testing only) *)
  mutable faults_fired : int;
}

(* Int-typed [min]/[max], shadowing [Stdlib]'s polymorphic pair: without
   flambda those are an out-of-line call plus a [caml_lessequal] C call
   each, paid on every cache miss of the recursions below. *)
let[@inline] min (a : int) b = if a <= b then a else b
let[@inline] max (a : int) b = if a >= b then a else b

(* How many cache probes between full limit checks (wall-clock read +
   unique-table length).  The countdown decrement itself is the only
   per-probe cost, so this bounds both poll latency and overhead. *)
let poll_interval = 4096

let pow2_at_least n =
  let p = ref 1 in
  while !p < n do
    p := !p lsl 1
  done;
  !p

(* Largest power of two <= n, for n >= 1. *)
let pow2_at_most n =
  let p = ref 1 in
  while !p lsl 1 <= n do
    p := !p lsl 1
  done;
  !p

(* Per-cache entries never exceed this even unbounded: a direct-mapped
   cache past 16K entries gains few hits on the models served here
   (within 2% of the misses at 256K, E14's cap rows) and costs resident
   memory for the manager's whole life (each entry is 3-4 words), which
   a pooled manager keeps across requests.  Caches start at
   [cache_initial] entries and double towards this cap. *)
let cache_hard_cap = 1 lsl 14

(* Entries per cache in a fresh manager, and again after [clear_caches].
   A cache doubles once its stores since the last resize exceed twice its
   entries, so a busy cache reaches the cap after about 32K stores, while
   a small model's manager never touches pages it does not use (a
   first-touched 4 KB page costs a few microseconds). *)
let cache_initial = 256

let cache_make stride entries =
  {
    c_stride = stride;
    c_data = Array.make (entries * stride) (-1);
    c_mask = entries - 1;
    c_stores = 0;
    c_over = 0;
    c_since = 0;
  }

let memo_initial = 64

let memo_make () =
  { mm_data = Array.make (4 * memo_initial) 0; mm_mask = memo_initial - 1;
    mm_gen = 0; mm_count = 0 }

let fresh_sub () = { s_slots = Array.make 16 (-1); s_count = 0 }

(* The placeholder in [subs] past [nvars]: [ensure_var] puts a fresh
   subtable in a slot before any node lands there, so it is never
   written. *)
let no_sub = { s_slots = [||]; s_count = 0 }

let create ?(unique_size = 1024) ?cache_limit () =
  let climit = match cache_limit with Some n -> n | None -> max_int in
  let cache_cap =
    if climit = max_int then cache_hard_cap
    else max 1 (pow2_at_most (max 1 climit))
  in
  let entries0 = min cache_initial cache_cap in
  (* [unique_size] sizes the initial node-store columns (clamped to a
     sane power-of-two range); the per-variable subtables start small
     and grow geometrically as nodes actually land in them. *)
  let ucap = pow2_at_least (max 1024 (min (max unique_size 2) (1 lsl 24))) in
  {
    n_var = Array.make ucap (-1);
    n_lo = Array.make ucap 0;
    n_hi = Array.make ucap 0;
    n_cap = ucap;
    n_next = 2;
    free_head = -1;
    total_created = 0;
    subs = Array.make 64 no_sub;
    nvars = 0;
    var2lvl = Array.make 64 (-1);
    lvl2var = Array.make 64 (-1);
    live = 0;
    ite_cache = cache_make 4 entries0;
    exists_cache = cache_make 3 entries0;
    forall_cache = cache_make 3 entries0;
    relprod_cache = cache_make 4 entries0;
    constrain_cache = cache_make 3 entries0;
    shift_cache = cache_make 3 entries0;
    memo = memo_make ();
    cache_limit = climit;
    cache_cap;
    evictions = 0;
    unique_lookups = 0;
    unique_probes = 0;
    peak_nodes = 0;
    gc_runs = 0;
    gc_collected = 0;
    ite_stat = fresh_opstat ();
    exists_stat = fresh_opstat ();
    forall_stat = fresh_opstat ();
    relprod_stat = fresh_opstat ();
    constrain_stat = fresh_opstat ();
    shift_stat = fresh_opstat ();
    roots = Hashtbl.create 16;
    next_root = 0;
    limits = None;
    poll_countdown = poll_interval;
    fault = None;
    faults_fired = 0;
  }

(* Grow the variable universe to include [v].  New variables enter at
   the bottom of the order (level = index), which extends any existing
   permutation consistently: levels [nvars..v] are necessarily free. *)
let ensure_var m v =
  if v >= m.nvars then begin
    let n = v + 1 in
    let cap = Array.length m.subs in
    if n > cap then begin
      let newcap = max n (2 * cap) in
      let st = Array.make newcap no_sub in
      Array.blit m.subs 0 st 0 m.nvars;
      let grow a =
        let a' = Array.make newcap (-1) in
        Array.blit a 0 a' 0 m.nvars;
        a'
      in
      let v2l = grow m.var2lvl and l2v = grow m.lvl2var in
      m.subs <- st;
      m.var2lvl <- v2l;
      m.lvl2var <- l2v
    end;
    for i = m.nvars to n - 1 do
      m.subs.(i) <- fresh_sub ();
      m.var2lvl.(i) <- i;
      m.lvl2var.(i) <- i
    done;
    m.nvars <- n
  end

let caches m =
  [ m.ite_cache; m.exists_cache; m.forall_cache; m.relprod_cache;
    m.constrain_cache; m.shift_cache ]

let set_cache_limit m limit =
  (match limit with
  | Some n when n <= 0 -> invalid_arg "Bdd.set_cache_limit: non-positive limit"
  | Some _ | None -> ());
  m.cache_limit <- (match limit with Some n -> n | None -> max_int);
  m.cache_cap <-
    (if m.cache_limit = max_int then cache_hard_cap
     else max 1 (pow2_at_most m.cache_limit));
  (* Shrink immediately: a newly installed bound must not leave an
     oversized array resident until the next insertion. *)
  let shrink c =
    if c.c_mask + 1 > m.cache_cap then begin
      c.c_data <- Array.make (m.cache_cap * c.c_stride) (-1);
      c.c_mask <- m.cache_cap - 1;
      c.c_since <- 0
    end
  in
  List.iter shrink (caches m)

let cache_limit m = if m.cache_limit = max_int then None else Some m.cache_limit

let count_nodes m = m.total_created
let live_nodes m = m.live

let snapshot_op (s : opstat) =
  { calls = s.calls; hits = s.hits; misses = s.misses }

let unique_capacity m =
  let acc = ref 0 in
  for v = 0 to m.nvars - 1 do
    acc := !acc + Array.length m.subs.(v).s_slots
  done;
  !acc

let stats m =
  let unique = unique_capacity m in
  {
    ite = snapshot_op m.ite_stat;
    exists = snapshot_op m.exists_stat;
    forall = snapshot_op m.forall_stat;
    relprod = snapshot_op m.relprod_stat;
    constrain = snapshot_op m.constrain_stat;
    shift = snapshot_op m.shift_stat;
    live_nodes = live_nodes m;
    peak_nodes = m.peak_nodes;
    total_nodes = count_nodes m;
    cache_evictions = m.evictions;
    gc_runs = m.gc_runs;
    gc_collected = m.gc_collected;
    cache_stores = List.fold_left (fun n c -> n + c.c_stores) 0 (caches m);
    unique_lookups = m.unique_lookups;
    unique_probes = m.unique_probes;
    store_capacity = m.n_cap;
    unique_capacity = unique;
    store_words =
      (3 * m.n_cap) + unique
      + List.fold_left (fun n c -> n + Array.length c.c_data) 0 (caches m);
  }

(* ------------------------------------------------------------------ *)
(* Limit checking.  [limits_check_now] is the single breach point:
   every budget violation funnels through it, so [Limits_exhausted]
   always carries a fresh stats snapshot and the partial progress
   recorded so far. *)

type limits_info = {
  breach : limits_breach;
  stats : stats;
  progress : limits_progress;
}

exception Limits_exhausted of limits_info

let limits_progress_of (l : limits) =
  {
    steps = l.l_steps;
    iterations = l.l_iterations;
    rings = l.l_rings;
    witness_prefix = l.l_witness;
  }

let limits_breach m l breach =
  raise
    (Limits_exhausted
       { breach; stats = stats m; progress = limits_progress_of l })

let limits_check_now m (l : limits) =
  if Atomic.get l.cancelled then limits_breach m l Interrupted;
  (match l.node_budget with
  | Some budget ->
    let live = live_nodes m in
    if live > budget then limits_breach m l (Node_budget { budget; live })
  | None -> ());
  (match l.step_budget with
  | Some budget ->
    if l.l_steps > budget then
      limits_breach m l (Step_budget { budget; steps = l.l_steps })
  | None -> ());
  match l.deadline with
  | Some d ->
    let now = now_monotonic () in
    if now > d then
      limits_breach m l
        (Deadline
           {
             timeout = (match l.timeout with Some t -> t | None -> 0.0);
             elapsed = now -. l.started;
           })
  | None -> ()

(* The cooperative poll on the hot path: a countdown decrement per
   cache probe, a full check every [poll_interval] probes. *)
let[@inline] poll m =
  m.poll_countdown <- m.poll_countdown - 1;
  if m.poll_countdown <= 0 then begin
    m.poll_countdown <- poll_interval;
    match m.limits with None -> () | Some l -> limits_check_now m l
  end

(* The fault hook on the hot sites.  Disarmed cost is one immediate
   field load and branch — unmeasurable next to the array probe each
   site performs anyway (bench E12 keeps it honest).  When the
   countdown reaches zero the fault disarms itself first, then raises
   [Out_of_memory]: the same exception a genuine allocation failure at
   that site would surface, so recovery code cannot tell injected
   pressure from real pressure. *)
let[@inline] fault_tick m site =
  match m.fault with
  | None -> ()
  | Some f ->
    if f.f_site = site then begin
      f.f_remaining <- f.f_remaining - 1;
      if f.f_remaining <= 0 then begin
        m.fault <- None;
        m.faults_fired <- m.faults_fired + 1;
        raise Out_of_memory
      end
    end

(* ------------------------------------------------------------------ *)
(* Direct-mapped operation caches.  Lookups and insertions funnel
   through these helpers so hit and miss counts stay accurate, every
   cache obeys the capacity cap, and attached resource limits are
   polled cooperatively — the same funnel the boxed scheme had, one
   probe per lookup instead of a tuple allocation plus a hash-table
   walk.  Eviction is per-entry overwrite: a store landing on a live
   entry with a different key displaces it (counted in
   [cache_evictions]).  Correctness never depends on the caches, only
   sharing does, so a displaced entry merely forces recomputation. *)

let[@inline] mix2 a b =
  let h = (a * 0x9e3779b1) lxor (b * 0x85ebca77) in
  h lxor (h lsr 16)

let[@inline] mix3 a b c =
  let h = (a * 0x9e3779b1) lxor (b * 0x85ebca77) lxor (c * 0xc2b2ae3d) in
  h lxor (h lsr 16)

(* Double a cache (rehashing live entries; collisions keep the newer
   slot's claim — both entries are still correct, one just loses its
   sharing).  At the cap this degrades to resetting the growth
   counter, so the check stays O(1) per store. *)
let cache_grow m c =
  let entries = (c.c_mask + 1) * 2 in
  if entries <= m.cache_cap then begin
    let old = c.c_data and oldmask = c.c_mask and st = c.c_stride in
    let d = Array.make (entries * st) (-1) in
    c.c_data <- d;
    c.c_mask <- entries - 1;
    for i = 0 to oldmask do
      let b = i * st in
      if old.(b) >= 0 then begin
        let h =
          (if st = 3 then mix2 old.(b) old.(b + 1)
           else mix3 old.(b) old.(b + 1) old.(b + 2))
          land c.c_mask
        in
        Array.blit old b d (h * st) st
      end
    done
  end;
  c.c_since <- 0

let cache_find2 m (stat : opstat) c k1 k2 =
  fault_tick m Cache_probe;
  poll m;
  let b = (mix2 k1 k2 land c.c_mask) * 3 in
  let d = c.c_data in
  if d.(b) = k1 && d.(b + 1) = k2 then begin
    stat.hits <- stat.hits + 1;
    d.(b + 2)
  end
  else begin
    stat.misses <- stat.misses + 1;
    -1
  end

let cache_store2 m c k1 k2 r =
  let b = (mix2 k1 k2 land c.c_mask) * 3 in
  let d = c.c_data in
  if d.(b) >= 0 && not (d.(b) = k1 && d.(b + 1) = k2) then begin
    c.c_over <- c.c_over + 1;
    m.evictions <- m.evictions + 1
  end;
  d.(b) <- k1;
  d.(b + 1) <- k2;
  d.(b + 2) <- r;
  c.c_stores <- c.c_stores + 1;
  c.c_since <- c.c_since + 1;
  if c.c_since > 2 * (c.c_mask + 1) then cache_grow m c

let cache_find3 m (stat : opstat) c k1 k2 k3 =
  fault_tick m Cache_probe;
  poll m;
  let b = (mix3 k1 k2 k3 land c.c_mask) * 4 in
  let d = c.c_data in
  if d.(b) = k1 && d.(b + 1) = k2 && d.(b + 2) = k3 then begin
    stat.hits <- stat.hits + 1;
    d.(b + 3)
  end
  else begin
    stat.misses <- stat.misses + 1;
    -1
  end

let cache_store3 m c k1 k2 k3 r =
  let b = (mix3 k1 k2 k3 land c.c_mask) * 4 in
  let d = c.c_data in
  if d.(b) >= 0 && not (d.(b) = k1 && d.(b + 1) = k2 && d.(b + 2) = k3)
  then begin
    c.c_over <- c.c_over + 1;
    m.evictions <- m.evictions + 1
  end;
  d.(b) <- k1;
  d.(b + 1) <- k2;
  d.(b + 2) <- k3;
  d.(b + 3) <- r;
  c.c_stores <- c.c_stores + 1;
  c.c_since <- c.c_since + 1;
  if c.c_since > 2 * (c.c_mask + 1) then cache_grow m c

(* Drop a cache back to its initial size — the packed analogue of
   [Hashtbl.reset]: contents gone, resident memory returned.  A cache
   still at that size is emptied in place, allocating nothing. *)
let cache_reset m c =
  let entries = min cache_initial m.cache_cap in
  if c.c_mask + 1 = entries then
    Array.fill c.c_data 0 (Array.length c.c_data) (-1)
  else begin
    c.c_data <- Array.make (entries * c.c_stride) (-1);
    c.c_mask <- entries - 1
  end;
  c.c_since <- 0

let clear_caches m = List.iter (cache_reset m) (caches m)

(* The per-call memo ([memo] above).  Values are handles or flags, all
   >= 0, so [memo_find]'s -1 is a miss.  A walk adds each key once,
   after its children, so [memo_add] never meets its own key. *)

let memo_start mm =
  mm.mm_gen <- mm.mm_gen + 1;
  mm.mm_count <- 0

let memo_find mm k1 k2 =
  let d = mm.mm_data and mask = mm.mm_mask and gen = mm.mm_gen in
  let i = ref (mix2 k1 k2 land mask) and r = ref (-2) in
  while !r = -2 do
    let b = 4 * !i in
    if d.(b) <> gen then r := -1
    else if d.(b + 1) = k1 && d.(b + 2) = k2 then r := d.(b + 3)
    else i := (!i + 1) land mask
  done;
  !r

let memo_put d mask gen k1 k2 v =
  let i = ref (mix2 k1 k2 land mask) in
  while d.(4 * !i) = gen do
    i := (!i + 1) land mask
  done;
  let b = 4 * !i in
  d.(b) <- gen;
  d.(b + 1) <- k1;
  d.(b + 2) <- k2;
  d.(b + 3) <- v

let memo_add mm k1 k2 v =
  memo_put mm.mm_data mm.mm_mask mm.mm_gen k1 k2 v;
  mm.mm_count <- mm.mm_count + 1;
  if 4 * mm.mm_count > 3 * (mm.mm_mask + 1) then begin
    let old = mm.mm_data and gen = mm.mm_gen in
    let slots = 2 * (mm.mm_mask + 1) in
    let d = Array.make (4 * slots) 0 in
    for i = 0 to mm.mm_mask do
      let b = 4 * i in
      if old.(b) = gen then
        memo_put d (slots - 1) gen old.(b + 1) old.(b + 2) old.(b + 3)
    done;
    mm.mm_data <- d;
    mm.mm_mask <- slots - 1
  end

(* ------------------------------------------------------------------ *)
(* The node store: column allocation and the open-addressing unique
   subtables. *)

let grow_columns m =
  let cap = 2 * m.n_cap in
  let nv = Array.make cap (-1)
  and nl = Array.make cap 0
  and nh = Array.make cap 0 in
  Array.blit m.n_var 0 nv 0 m.n_cap;
  Array.blit m.n_lo 0 nl 0 m.n_cap;
  Array.blit m.n_hi 0 nh 0 m.n_cap;
  m.n_var <- nv;
  m.n_lo <- nl;
  m.n_hi <- nh;
  m.n_cap <- cap

let alloc_node m v lo hi =
  let n =
    if m.free_head >= 0 then begin
      let n = m.free_head in
      m.free_head <- m.n_lo.(n);
      n
    end
    else begin
      if m.n_next >= m.n_cap then grow_columns m;
      let n = m.n_next in
      m.n_next <- n + 1;
      n
    end
  in
  m.n_var.(n) <- v;
  m.n_lo.(n) <- lo;
  m.n_hi.(n) <- hi;
  m.total_created <- m.total_created + 1;
  m.live <- m.live + 1;
  if m.live > m.peak_nodes then m.peak_nodes <- m.live;
  n

let free_node m n =
  m.n_var.(n) <- -1;
  m.n_lo.(n) <- m.free_head;
  m.n_hi.(n) <- -1;
  m.free_head <- n;
  m.live <- m.live - 1

let[@inline] hash_uid lo hi =
  let h = (lo * 0x9e3779b1) lxor (hi * 0x61c88647) in
  h lxor (h lsr 16)

(* Rehash a subtable into a fresh slot array sized for its live count.
   The growth path: load is kept under 3/4 so probe chains stay short
   and terminate. *)
let sub_grow m s =
  let newcap = pow2_at_least (max 16 (2 * (s.s_count + 1))) in
  let slots = Array.make newcap (-1) in
  let mask = newcap - 1 in
  Array.iter
    (fun e ->
      if e >= 2 then begin
        let j = ref (hash_uid m.n_lo.(e) m.n_hi.(e) land mask) in
        while slots.(!j) <> -1 do
          j := (!j + 1) land mask
        done;
        slots.(!j) <- e
      end)
    s.s_slots;
  s.s_slots <- slots

(* Insert node [e] under its current key unless a node with that key is
   already there; [false] reports the duplicate ([Snapshot.load]'s
   canonicity check; [mk] inlines its own probe). *)
let sub_insert m s e =
  let lo = m.n_lo.(e) and hi = m.n_hi.(e) in
  let slots = s.s_slots in
  let mask = Array.length slots - 1 in
  let j = ref (hash_uid lo hi land mask) in
  let same k = m.n_lo.(k) = lo && m.n_hi.(k) = hi in
  while slots.(!j) <> -1 && not (same slots.(!j)) do
    j := (!j + 1) land mask
  done;
  if slots.(!j) <> -1 then false
  else begin
    slots.(!j) <- e;
    s.s_count <- s.s_count + 1;
    if 4 * (s.s_count + 1) > 3 * (mask + 1) then sub_grow m s;
    true
  end

(* ------------------------------------------------------------------ *)
(* Handles and structure. *)

let zero _ = 0
let one _ = 1
let id (f : t) : int = f
let is_zero f = f = 0
let is_one f = f = 1
let equal (a : t) (b : t) = a = b
let compare = Int.compare
let hash (f : t) = f

let topvar m f =
  if f >= 2 then m.n_var.(f) else invalid_arg "Bdd.topvar: constant"

let low m f = if f >= 2 then m.n_lo.(f) else invalid_arg "Bdd.low: constant"
let high m f = if f >= 2 then m.n_hi.(f) else invalid_arg "Bdd.high: constant"

(* Root level, treating constants as deeper than everything.  With the
   default identity order this is the root variable index, so every
   level comparison below reproduces the historic var comparison
   bit-for-bit. *)
let[@inline] lvl m f = if f < 2 then max_int else m.var2lvl.(m.n_var.(f))

(* The only node constructor: reduces and hash-conses. *)
let mk m v lo hi =
  fault_tick m Mk;
  if lo = hi then lo
  else begin
    ensure_var m v;
    let s = m.subs.(v) in
    let slots = s.s_slots in
    let mask = Array.length slots - 1 in
    let j = ref (hash_uid lo hi land mask) in
    let found = ref (-1) in
    let probes = ref 1 and looking = ref true in
    while !looking do
      let e = slots.(!j) in
      if e = -1 then looking := false
      else if m.n_lo.(e) = lo && m.n_hi.(e) = hi then begin
        found := e;
        looking := false
      end
      else begin
        j := (!j + 1) land mask;
        incr probes
      end
    done;
    m.unique_lookups <- m.unique_lookups + 1;
    m.unique_probes <- m.unique_probes + !probes;
    if !found >= 0 then !found
    else begin
      let n = alloc_node m v lo hi in
      slots.(!j) <- n;
      s.s_count <- s.s_count + 1;
      if 4 * (s.s_count + 1) > 3 * (mask + 1) then sub_grow m s;
      n
    end
  end

let var m v =
  if v < 0 then invalid_arg "Bdd.var: negative variable";
  mk m v 0 1

let nvar m v =
  if v < 0 then invalid_arg "Bdd.nvar: negative variable";
  mk m v 1 0

(* Cofactors with respect to a variable at or above the root: two
   branch tests and an array load each, no allocation. *)
let[@inline] cof0 m f v = if f >= 2 && m.n_var.(f) = v then m.n_lo.(f) else f
let[@inline] cof1 m f v = if f >= 2 && m.n_var.(f) = v then m.n_hi.(f) else f

(* [ite] first rewrites its triple to a standard one (Brace, Rudell and
   Bryant, DAC 1990): an operand equal to [f] becomes the constant it
   must be there ([ite f f h = ite f 1 h], [ite f g f = ite f g 0]), and
   the commutative AND ([ite f g 0]) and OR ([ite f 1 h]) put their
   operands in handle order, so [and_ f g] and [and_ g f] share one
   cache entry.  Every rewrite keeps the function and the top variable,
   so the recursion visits the same subproblems and allocates the same
   nodes; it only hits the cache more often. *)
let rec ite m f g h =
  m.ite_stat.calls <- m.ite_stat.calls + 1;
  if f = 1 then g
  else if f = 0 then h
  else begin
    let g = if g = f then 1 else g and h = if h = f then 0 else h in
    if g = h then g
    else if g = 1 && h = 0 then f
    else if h = 0 && g < f then ite_step m g f 0
    else if g = 1 && h < f then ite_step m h 1 f
    else ite_step m f g h
  end

(* The cache probe and Shannon expansion of a standard, non-terminal
   triple. *)
and ite_step m f g h =
  let r = cache_find3 m m.ite_stat m.ite_cache f g h in
  if r >= 0 then r
  else begin
    let l = min (lvl m f) (min (lvl m g) (lvl m h)) in
    let v = m.lvl2var.(l) in
    let f0 = cof0 m f v
    and f1 = cof1 m f v
    and g0 = cof0 m g v
    and g1 = cof1 m g v
    and h0 = cof0 m h v
    and h1 = cof1 m h v in
    let lo = ite m f0 g0 h0 and hi = ite m f1 g1 h1 in
    let r = mk m v lo hi in
    cache_store3 m m.ite_cache f g h r;
    r
  end

let not_ m f = ite m f 0 1
let and_ m f g = ite m f g 0
let or_ m f g = ite m f 1 g
let xor m f g = ite m f (not_ m g) g
let imp m f g = ite m f g 1
let iff m f g = ite m f g (not_ m g)
let diff m f g = ite m f (not_ m g) 0
let conj m fs = List.fold_left (and_ m) 1 fs
let disj m fs = List.fold_left (or_ m) 0 fs

(* Implication without building [diff f g]: walk both diagrams in step
   and stop at the first path where [f] holds and [g] does not.  Only
   pairs found to imply are memoised: a counter-path ends the walk. *)
let subset m f g =
  let mm = m.memo in
  memo_start mm;
  let rec leq f g =
    if f = 0 || g = 1 || f = g then true
    else if f = 1 || g = 0 then false
    else if memo_find mm f g >= 0 then true
    else begin
      poll m;
      let v = m.lvl2var.(min (lvl m f) (lvl m g)) in
      leq (cof0 m f v) (cof0 m g v)
      && leq (cof1 m f v) (cof1 m g v)
      && (memo_add mm f g 1;
          true)
    end
  in
  leq f g

let restrict m f v b =
  if v < 0 then invalid_arg "Bdd.restrict: negative variable";
  ensure_var m v;
  let vl = m.var2lvl.(v) in
  let rec go f =
    if f < 2 then f
    else
      let fv = m.n_var.(f) in
      if m.var2lvl.(fv) > vl then f
      else if fv = v then if b then m.n_hi.(f) else m.n_lo.(f)
      else mk m fv (go m.n_lo.(f)) (go m.n_hi.(f))
  in
  go f

let cube m vs =
  let sorted = List.sort_uniq Int.compare vs in
  List.iter
    (fun v ->
      if v < 0 then invalid_arg "Bdd.cube: negative variable";
      ensure_var m v)
    sorted;
  (* Build bottom-up in *level* order, deepest variable innermost. *)
  let by_level =
    List.stable_sort
      (fun a b -> Int.compare m.var2lvl.(a) m.var2lvl.(b))
      sorted
  in
  List.fold_right (fun v acc -> mk m v 0 acc) by_level 1

let minterm m lits =
  List.iter
    (fun (v, _) ->
      if v < 0 then invalid_arg "Bdd.minterm: negative variable";
      ensure_var m v)
    lits;
  (* Bottom-up in level order, as [cube]: one [mk] per literal.  A
     repeated variable is already the accumulator's root: the same
     literal again keeps it, the opposite one makes the cube false. *)
  List.fold_right
    (fun (v, b) acc ->
      if acc >= 2 && m.n_var.(acc) = v then
        (if (m.n_lo.(acc) = 0) = b then acc else 0)
      else if b then mk m v 0 acc
      else mk m v acc 0)
    (List.stable_sort
       (fun (a, _) (b, _) -> Int.compare m.var2lvl.(a) m.var2lvl.(b))
       lits)
    1

(* Skip cube variables above level [l] (they do not occur in the
   operand, so quantifying them is a no-op for that branch). *)
let rec cube_from m c l =
  if c >= 2 && m.var2lvl.(m.n_var.(c)) < l then cube_from m m.n_hi.(c) l
  else c

let rec exists m c f =
  m.exists_stat.calls <- m.exists_stat.calls + 1;
  if f < 2 then f
  else if c < 2 then f
  else begin
    let fv = m.n_var.(f) in
    let c = cube_from m c m.var2lvl.(fv) in
    if c < 2 then f
    else begin
      let r = cache_find2 m m.exists_stat m.exists_cache f c in
      if r >= 0 then r
      else begin
        let r =
          if fv = m.n_var.(c) then
            let ch = m.n_hi.(c) in
            or_ m (exists m ch m.n_lo.(f)) (exists m ch m.n_hi.(f))
          else mk m fv (exists m c m.n_lo.(f)) (exists m c m.n_hi.(f))
        in
        cache_store2 m m.exists_cache f c r;
        r
      end
    end
  end

let rec forall m c f =
  m.forall_stat.calls <- m.forall_stat.calls + 1;
  if f < 2 then f
  else if c < 2 then f
  else begin
    let fv = m.n_var.(f) in
    let c = cube_from m c m.var2lvl.(fv) in
    if c < 2 then f
    else begin
      let r = cache_find2 m m.forall_stat m.forall_cache f c in
      if r >= 0 then r
      else begin
        let r =
          if fv = m.n_var.(c) then
            let ch = m.n_hi.(c) in
            and_ m (forall m ch m.n_lo.(f)) (forall m ch m.n_hi.(f))
          else mk m fv (forall m c m.n_lo.(f)) (forall m c m.n_hi.(f))
        in
        cache_store2 m m.forall_cache f c r;
        r
      end
    end
  end

(* Relational product: exists c (f /\ g) in a single recursion, the
   workhorse of image computation. *)
let rec and_exists m c f g =
  m.relprod_stat.calls <- m.relprod_stat.calls + 1;
  if f = 0 || g = 0 then 0
  else if f = 1 && g = 1 then 1
  else if c < 2 then and_ m f g
  else begin
    let l = min (lvl m f) (lvl m g) in
    let v = m.lvl2var.(l) in
    let c = cube_from m c l in
    if c < 2 then and_ m f g
    else begin
      (* Normalise the cache key: /\ is commutative. *)
      let i, j = if f <= g then (f, g) else (g, f) in
      let r = cache_find3 m m.relprod_stat m.relprod_cache i j c in
      if r >= 0 then r
      else begin
        let f0 = cof0 m f v
        and f1 = cof1 m f v
        and g0 = cof0 m g v
        and g1 = cof1 m g v in
        let r =
          if m.n_var.(c) = v then
            let ch = m.n_hi.(c) in
            or_ m (and_exists m ch f0 g0) (and_exists m ch f1 g1)
          else mk m v (and_exists m c f0 g0) (and_exists m c f1 g1)
        in
        cache_store3 m m.relprod_cache i j c r;
        r
      end
    end
  end

(* Generalized cofactor (Coudert-Madre "constrain"): a function that
   agrees with [f] on [c] and may take any value outside it, chosen so
   the result is often much smaller than [f].  Key property:
   [c /\ constrain f c = c /\ f]. *)
let rec constrain m f c =
  m.constrain_stat.calls <- m.constrain_stat.calls + 1;
  if c = 0 then invalid_arg "Bdd.constrain: care set is empty"
  else if c = 1 then f
  else if f < 2 then f
  else if f = c then 1
  else begin
    let r = cache_find2 m m.constrain_stat m.constrain_cache f c in
    if r >= 0 then r
    else begin
      let l = min (lvl m f) (lvl m c) in
      let v = m.lvl2var.(l) in
      let f0 = cof0 m f v
      and f1 = cof1 m f v
      and c0 = cof0 m c v
      and c1 = cof1 m c v in
      let r =
        if c1 = 0 then constrain m f0 c0
        else if c0 = 0 then constrain m f1 c1
        else mk m v (constrain m f0 c0) (constrain m f1 c1)
      in
      cache_store2 m m.constrain_cache f c r;
      r
    end
  end

(* Variable shift v |-> v + d: the prime/unprime of every image.  A
   constant shift is injective, so no support check is needed.  A node
   is rebuilt by [mk] when its target sits above both shifted children
   (always, for level-adjacent current/next pairs), else through [ite],
   which is correct under any order. *)
let rec shift m f d =
  m.shift_stat.calls <- m.shift_stat.calls + 1;
  if f < 2 || d = 0 then f
  else begin
    let r = cache_find2 m m.shift_stat m.shift_cache f d in
    if r >= 0 then r
    else begin
      let v = m.n_var.(f) + d in
      if v < 0 then invalid_arg "Bdd.shift: negative target variable";
      ensure_var m v;
      let lo = shift m m.n_lo.(f) d in
      let hi = shift m m.n_hi.(f) d in
      let l = m.var2lvl.(v) in
      let r =
        if l < lvl m lo && l < lvl m hi then mk m v lo hi
        else ite m (var m v) hi lo
      in
      cache_store2 m m.shift_cache f d r;
      r
    end
  end

(* One state's successors in one walk: the pinned variables follow
   their literal and every other variable moves to [v + d], rebuilt as
   [shift] rebuilds it.  Shared subgraphs are walked once through the
   per-call memo, and no op cache is probed: the result is the same
   [shift (restrict ...)] the two passes built, without the nodes of
   the intermediate cofactor.  A pinned node is only a step towards one
   child, so it takes no memo entry: its path ends at the first free
   node, which is memoised. *)
let cofactor_shift m f ~pin ~d =
  let np = Array.length pin in
  let mm = m.memo in
  memo_start mm;
  let rec go f =
    if f < 2 then f
    else
      let v = m.n_var.(f) in
      let p = if v < np then pin.(v) else -1 in
      if p = 0 then go m.n_lo.(f)
      else if p = 1 then go m.n_hi.(f)
      else begin
        let r = memo_find mm f 0 in
        if r >= 0 then r
        else begin
          poll m;
          let w = v + d in
          if w < 0 then
            invalid_arg "Bdd.cofactor_shift: negative target variable";
          ensure_var m w;
          let lo = go m.n_lo.(f) in
          let hi = go m.n_hi.(f) in
          let l = m.var2lvl.(w) in
          let r =
            if l < lvl m lo && l < lvl m hi then mk m w lo hi
            else ite m (var m w) hi lo
          in
          memo_add mm f 0 r;
          r
        end
      end
  in
  go f

(* The least common point of [f], its pinned variables following their
   literal, and of [g] read at [v + d]: a depth-first search over
   (f node, g node) pairs in level order that tries [false] first.  A
   non-zero pair of reduced diagrams need not meet, so a pair whose two
   branches both fail is memoised as dead and never walked again; the
   walk builds no node.  [above] is the level the pair was reached
   through: a shifted [g] node that does not sit below it would make
   the path test a variable twice. *)
let least_meet m f ~pin g ~d path =
  let np = Array.length pin and npath = Array.length path in
  let mm = m.memo in
  memo_start mm;
  let rec follow f =
    if f < 2 then f
    else
      let v = m.n_var.(f) in
      let p = if v < np then pin.(v) else -1 in
      if p = 0 then follow m.n_lo.(f)
      else if p = 1 then follow m.n_hi.(f)
      else f
  in
  let rec go f g above =
    let f = follow f in
    if f = 0 || g = 0 then false
    else if f = 1 && g = 1 then true
    else if memo_find mm f g >= 0 then false
    else begin
      poll m;
      let lf = lvl m f in
      let lg =
        if g < 2 then max_int
        else begin
          let w = m.n_var.(g) + d in
          if w < 0 then invalid_arg "Bdd.least_meet: negative target variable";
          if w < np && pin.(w) >= 0 then
            invalid_arg "Bdd.least_meet: g meets a pinned variable";
          ensure_var m w;
          m.var2lvl.(w)
        end
      in
      let l = min lf lg in
      if l <= above then
        invalid_arg "Bdd.least_meet: the shift breaks g's level order";
      let v = m.lvl2var.(l) in
      if v >= npath then invalid_arg "Bdd.least_meet: path too short";
      let f0 = if lf = l then m.n_lo.(f) else f
      and f1 = if lf = l then m.n_hi.(f) else f
      and g0 = if lg = l then m.n_lo.(g) else g
      and g1 = if lg = l then m.n_hi.(g) else g in
      path.(v) <- 0;
      go f0 g0 l
      || begin
        path.(v) <- 1;
        go f1 g1 l
        || begin
          path.(v) <- -1;
          memo_add mm f g 0;
          false
        end
      end
    end
  in
  go f g (-1)

let support m f =
  let seen = Hashtbl.create 64 in
  let vars = Hashtbl.create 64 in
  let rec go f =
    if f >= 2 && not (Hashtbl.mem seen f) then begin
      Hashtbl.add seen f ();
      Hashtbl.replace vars m.n_var.(f) ();
      go m.n_lo.(f);
      go m.n_hi.(f)
    end
  in
  go f;
  Hashtbl.fold (fun v () acc -> v :: acc) vars []
  |> List.sort Int.compare

let size ?(cap = max_int) m f =
  let seen = Hashtbl.create 64 in
  let rec go f =
    if f >= 2 && Hashtbl.length seen <= cap && not (Hashtbl.mem seen f)
    then begin
      Hashtbl.add seen f ();
      go m.n_lo.(f);
      go m.n_hi.(f)
    end
  in
  go f;
  Hashtbl.length seen

let rec eval m f env =
  if f = 0 then false
  else if f = 1 then true
  else if env m.n_var.(f) then eval m m.n_hi.(f) env
  else eval m m.n_lo.(f) env

let sat_count m f n =
  if List.exists (fun v -> v >= n) (support m f) then
    invalid_arg "Bdd.sat_count: support exceeds variable universe";
  if n > m.nvars then ensure_var m (n - 1);
  (* Weighted count over the n-variable universe, order-aware: crossing
     a gap of k universe variables (counted by level) multiplies by 2^k.
     [rank.(l)] counts universe variables at levels strictly below l;
     with the identity order rank.(l) = min l n, which reproduces the
     historic var-index arithmetic exactly. *)
  let nl = m.nvars in
  let rank = Array.make (nl + 1) 0 in
  for v = 0 to min n m.nvars - 1 do
    rank.(m.var2lvl.(v) + 1) <- rank.(m.var2lvl.(v) + 1) + 1
  done;
  for l = 1 to nl do
    rank.(l) <- rank.(l) + rank.(l - 1)
  done;
  let rank_of f = if f < 2 then n else rank.(m.var2lvl.(m.n_var.(f))) in
  let memo = Hashtbl.create 256 in
  let rec go f =
    if f = 0 then 0.0
    else if f = 1 then 1.0
    else
      match Hashtbl.find_opt memo f with
      | Some c -> c
      | None ->
        let here = rank.(m.var2lvl.(m.n_var.(f))) in
        let weight branch =
          let sub = go branch in
          let gap = rank_of branch - here - 1 in
          sub *. Float.pow 2.0 (float_of_int gap)
        in
        let c = weight m.n_lo.(f) +. weight m.n_hi.(f) in
        Hashtbl.add memo f c;
        c
  in
  go f *. Float.pow 2.0 (float_of_int (rank_of f))

let any_sat m f =
  let rec go acc f =
    if f = 0 then raise Not_found
    else if f = 1 then acc
    else
      let lo = m.n_lo.(f) in
      if lo = 0 then go ((m.n_var.(f), true) :: acc) m.n_hi.(f)
      else go ((m.n_var.(f), false) :: acc) lo
  in
  (* The walk prefers [false] branches in level order, so the cube
     depends on the variable order; only its listing is sorted by
     variable index.  Callers needing an order-independent point
     cofactor variable by variable instead (see [Kripke.pick_state]). *)
  go [] f |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let any_sat_total m f ~vars =
  let partial = any_sat m f in
  let tbl = Hashtbl.create (2 * List.length partial) in
  List.iter (fun (v, b) -> Hashtbl.replace tbl v b) partial;
  let mentioned = Hashtbl.create 16 in
  let assignment =
    List.map
      (fun v ->
        Hashtbl.replace mentioned v ();
        (v, match Hashtbl.find_opt tbl v with Some b -> b | None -> false))
      (List.sort_uniq Int.compare vars)
  in
  List.iter
    (fun (v, _) ->
      if not (Hashtbl.mem mentioned v) then
        invalid_arg "Bdd.any_sat_total: support not contained in vars")
    partial;
  assignment

let fold_sat m f vars ~init ~f:k =
  let vars_a = Array.of_list vars in
  let nv = Array.length vars_a in
  Array.iter
    (fun v ->
      if v < 0 then invalid_arg "Bdd.fold_sat: negative variable";
      ensure_var m v)
    vars_a;
  let pos = Hashtbl.create (2 * nv) in
  Array.iteri (fun i v -> Hashtbl.replace pos v i) vars_a;
  (* Walk the given variables in *level* order (the diagram's own walk
     order); [order.(j)] is the position, in the caller's list, of the
     j-th variable by level.  Under the identity order this enumerates
     assignments exactly as the historic index-order walk did. *)
  let order = Array.init nv (fun i -> i) in
  let order =
    Array.of_list
      (List.stable_sort
         (fun i j ->
           Int.compare m.var2lvl.(vars_a.(i)) m.var2lvl.(vars_a.(j)))
         (Array.to_list order))
  in
  let assign = Array.make nv false in
  let rec go acc j f =
    if f = 0 then acc
    else if j = nv then if f = 1 then k acc assign else acc
    else begin
      let i = order.(j) in
      let v = vars_a.(i) in
      let f0 = cof0 m f v and f1 = cof1 m f v in
      assign.(i) <- false;
      let acc = go acc (j + 1) f0 in
      assign.(i) <- true;
      let acc = go acc (j + 1) f1 in
      assign.(i) <- false;
      acc
    end
  in
  List.iter
    (fun v ->
      if not (Hashtbl.mem pos v) then
        invalid_arg "Bdd.fold_sat: support not contained in vars")
    (support m f);
  go init 0 f

(* ------------------------------------------------------------------ *)
(* Statistics.                                                         *)

let ops s = [ s.ite; s.exists; s.forall; s.relprod; s.constrain; s.shift ]
let cache_hits s = List.fold_left (fun n (o : op_stats) -> n + o.hits) 0 (ops s)
let cache_misses s =
  List.fold_left (fun n (o : op_stats) -> n + o.misses) 0 (ops s)

(* Attribute the work of one governed region of a long-lived (warm)
   manager by subtracting a snapshot taken at region entry.  Monotone
   counters subtract; [live_nodes], [peak_nodes] and the capacity
   readings are instantaneous, so the later snapshot's values are kept
   (pair with [reset_peak] when the region's own peak is wanted). *)
let diff_stats after before =
  let op (x : op_stats) (y : op_stats) =
    { calls = x.calls - y.calls;
      hits = x.hits - y.hits;
      misses = x.misses - y.misses }
  in
  {
    ite = op after.ite before.ite;
    exists = op after.exists before.exists;
    forall = op after.forall before.forall;
    relprod = op after.relprod before.relprod;
    constrain = op after.constrain before.constrain;
    shift = op after.shift before.shift;
    live_nodes = after.live_nodes;
    peak_nodes = after.peak_nodes;
    total_nodes = after.total_nodes - before.total_nodes;
    cache_evictions = after.cache_evictions - before.cache_evictions;
    gc_runs = after.gc_runs - before.gc_runs;
    gc_collected = after.gc_collected - before.gc_collected;
    cache_stores = after.cache_stores - before.cache_stores;
    unique_lookups = after.unique_lookups - before.unique_lookups;
    unique_probes = after.unique_probes - before.unique_probes;
    store_capacity = after.store_capacity;
    unique_capacity = after.unique_capacity;
    store_words = after.store_words;
  }

let reset_peak m = m.peak_nodes <- m.live

let reset_stats m =
  let reset (s : opstat) =
    s.calls <- 0;
    s.hits <- 0;
    s.misses <- 0
  in
  List.iter reset
    [ m.ite_stat; m.exists_stat; m.forall_stat; m.relprod_stat;
      m.constrain_stat; m.shift_stat ];
  List.iter
    (fun c ->
      c.c_stores <- 0;
      c.c_over <- 0)
    (caches m);
  m.evictions <- 0;
  m.unique_lookups <- 0;
  m.unique_probes <- 0;
  m.gc_runs <- 0;
  m.gc_collected <- 0;
  m.peak_nodes <- live_nodes m

let pp_stats ppf s =
  let op name (o : op_stats) =
    Format.fprintf ppf "  %-10s %10d calls %10d hits %10d misses@," name
      o.calls o.hits o.misses
  in
  Format.fprintf ppf "@[<v>BDD manager: %d live nodes (peak %d, %d allocated)@,"
    s.live_nodes s.peak_nodes s.total_nodes;
  List.iter2 op
    [ "ite"; "exists"; "forall"; "relprod"; "constrain"; "shift" ]
    (ops s);
  Format.fprintf ppf
    "  cache hits %d  misses %d  evictions %d@,  gc runs %d (collected %d nodes)"
    (cache_hits s) (cache_misses s) s.cache_evictions s.gc_runs s.gc_collected;
  Format.fprintf ppf
    "@,  unique table load %.2f (%d/%d slots)  mean probe %.2f  cache stores %d"
    (float_of_int s.live_nodes
    /. float_of_int (max 1 s.unique_capacity))
    s.live_nodes s.unique_capacity
    (float_of_int s.unique_probes /. float_of_int (max 1 s.unique_lookups))
    s.cache_stores;
  let columns = 3 * s.store_capacity in
  let kb words = ((words * (Sys.word_size / 8)) + 1023) / 1024 in
  Format.fprintf ppf "@,  store: %d KB (columns %d KB, unique %d KB, caches %d KB)"
    (kb s.store_words) (kb columns) (kb s.unique_capacity)
    (kb (s.store_words - columns - s.unique_capacity));
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Explicit roots and mark-and-sweep garbage collection.               *)

type root = int

let add_root m f =
  let r = m.next_root in
  m.next_root <- r + 1;
  Hashtbl.replace m.roots r f;
  r

let remove_root m r = Hashtbl.remove m.roots r

let with_root m f k =
  let r = add_root m f in
  Fun.protect ~finally:(fun () -> remove_root m r) k

(* Mark from the registered roots, rebuild every subtable with only
   the survivors (sized 2x so the next growth is a while away), and
   thread the swept indices onto the free list.  Handles of survivors
   are untouched — sweep, not compaction: handles are immediate ints
   held in arbitrary client structures, so they cannot be rewritten.
   Mark recursion depth is bounded by the number of levels (paths
   visit strictly increasing levels). *)
let gc m =
  fault_tick m Gc;
  let marks = Bytes.make m.n_next '\000' in
  let rec mark f =
    if f >= 2 && Bytes.get marks f = '\000' then begin
      Bytes.set marks f '\001';
      mark m.n_lo.(f);
      mark m.n_hi.(f)
    end
  in
  Hashtbl.iter (fun _ provider -> List.iter mark (provider ())) m.roots;
  let before = m.live in
  for v = 0 to m.nvars - 1 do
    let s = m.subs.(v) in
    if s.s_count > 0 then begin
      let old = s.s_slots in
      let surv = ref 0 in
      Array.iter
        (fun e -> if e >= 2 && Bytes.get marks e <> '\000' then incr surv)
        old;
      let cap = pow2_at_least (max 16 (2 * (!surv + 1))) in
      let slots = Array.make cap (-1) in
      let mask = cap - 1 in
      Array.iter
        (fun e ->
          if e >= 2 then begin
            if Bytes.get marks e <> '\000' then begin
              let j = ref (hash_uid m.n_lo.(e) m.n_hi.(e) land mask) in
              while slots.(!j) <> -1 do
                j := (!j + 1) land mask
              done;
              slots.(!j) <- e
            end
            else free_node m e
          end)
        old;
      s.s_slots <- slots;
      s.s_count <- !surv
    end
  done;
  (* The operation caches may hold handles of nodes just swept (whose
     indices a later [mk] will recycle); returning one would break
     canonicity, so they must go too. *)
  clear_caches m;
  let collected = before - m.live in
  m.gc_runs <- m.gc_runs + 1;
  m.gc_collected <- m.gc_collected + collected;
  collected

(* ------------------------------------------------------------------ *)
(* The variable order.  It is installed once, on the empty manager, and
   never changes afterwards: no node has to be rewritten, so handles,
   levels and cached results all stay valid for the manager's life. *)

module Reorder = struct
  let order m = Array.sub m.lvl2var 0 m.nvars

  let set_order m ord =
    if m.live > 0 then
      invalid_arg "Bdd.Reorder.set_order: the manager already has nodes";
    let n = Array.length ord in
    if n < m.nvars then
      invalid_arg "Bdd.Reorder.set_order: order shorter than variable count";
    let seen = Array.make n false in
    Array.iter
      (fun v ->
        if v < 0 || v >= n || seen.(v) then
          invalid_arg "Bdd.Reorder.set_order: not a permutation";
        seen.(v) <- true)
      ord;
    if n > 0 then ensure_var m (n - 1);
    Array.iteri
      (fun l v ->
        m.lvl2var.(l) <- v;
        m.var2lvl.(v) <- l)
      ord;
    clear_caches m

  let with_checkpoints _ k = k ()
end

(* ------------------------------------------------------------------ *)
(* Resource governance, public face.  The record type and the checker
   live above (the manager and the hot loops need them); this module
   adds construction, attachment, and the explicit coarse-grained
   charge points used by the fixpoint engines. *)

module Limits = struct
  type nonrec t = limits

  type breach = limits_breach =
    | Deadline of { timeout : float; elapsed : float }
    | Node_budget of { budget : int; live : int }
    | Step_budget of { budget : int; steps : int }
    | Interrupted

  type progress = limits_progress = {
    steps : int;
    iterations : int;
    rings : int;
    witness_prefix : bool array list;
  }

  type info = limits_info = {
    breach : breach;
    stats : stats;
    progress : progress;
  }

  exception Exhausted = Limits_exhausted

  let create ?timeout ?node_budget ?step_budget ?cancel () =
    (match timeout with
    | Some t when not (t > 0.0) ->
      invalid_arg "Bdd.Limits.create: non-positive timeout"
    | Some _ | None -> ());
    (match node_budget with
    | Some n when n <= 0 ->
      invalid_arg "Bdd.Limits.create: non-positive node budget"
    | Some _ | None -> ());
    (match step_budget with
    | Some n when n <= 0 ->
      invalid_arg "Bdd.Limits.create: non-positive step budget"
    | Some _ | None -> ());
    let started = now_monotonic () in
    {
      started;
      timeout;
      deadline = (match timeout with Some t -> Some (started +. t) | None -> None);
      node_budget;
      step_budget;
      l_steps = 0;
      l_iterations = 0;
      l_rings = 0;
      l_witness = [];
      cancelled = (match cancel with Some c -> c | None -> Atomic.make false);
    }

  let unlimited () = create ()
  let cancel l = Atomic.set l.cancelled true
  let cancelled l = Atomic.get l.cancelled
  let progress l = limits_progress_of l
  let elapsed l = now_monotonic () -. l.started

  let attach m l =
    m.limits <- Some l;
    m.poll_countdown <- min m.poll_countdown poll_interval

  let detach m = m.limits <- None
  let attached m = m.limits

  let with_attached m l k =
    let previous = m.limits in
    attach m l;
    Fun.protect ~finally:(fun () -> m.limits <- previous) k

  let check = limits_check_now

  (* The [Step] fault site lives here rather than in [fault_tick]: a
     tripped deadline is a [Limits] breach, not an allocation failure,
     so it must funnel through [limits_breach] to carry the usual stats
     snapshot and partial progress.  The simulated deadline reports
     elapsed equal to its limit, not the clock, so an injected breach
     renders the same text however loaded the machine is. *)
  let fault_step_tick m l =
    match m.fault with
    | Some f when f.f_site = Step ->
      f.f_remaining <- f.f_remaining - 1;
      if f.f_remaining <= 0 then begin
        m.fault <- None;
        m.faults_fired <- m.faults_fired + 1;
        let timeout = match l.timeout with Some t -> t | None -> 0.0 in
        limits_breach m l (Deadline { timeout; elapsed = timeout })
      end
    | Some _ | None -> ()

  let step m l =
    fault_step_tick m l;
    l.l_steps <- l.l_steps + 1;
    l.l_iterations <- l.l_iterations + 1;
    limits_check_now m l

  let ring_step m l =
    l.l_steps <- l.l_steps + 1;
    l.l_rings <- l.l_rings + 1;
    limits_check_now m l

  let note_witness l states = l.l_witness <- states

  let pp_breach ppf = function
    | Deadline { timeout; elapsed } ->
      Format.fprintf ppf "timeout after %.2fs (limit %gs)" elapsed timeout
    | Node_budget { budget; live } ->
      Format.fprintf ppf "node budget of %d exceeded (%d live nodes)" budget
        live
    | Step_budget { budget; steps } ->
      Format.fprintf ppf "step budget of %d exceeded (%d steps)" budget steps
    | Interrupted -> Format.fprintf ppf "interrupted"
end

(* ------------------------------------------------------------------ *)
(* Deterministic fault injection, public face.  The hooks themselves
   live on the hot paths above ([fault_tick] in [mk] / the cache
   probes / [gc], [fault_step_tick] in [Limits.step]);
   this module only arms and disarms them. *)

module Fault = struct
  type site = fault_site = Mk | Cache_probe | Gc | Step

  let arm m ~site ~after =
    if after <= 0 then invalid_arg "Bdd.Fault.arm: non-positive count";
    m.fault <- Some { f_site = site; f_remaining = after }

  let disarm m = m.fault <- None

  let armed m =
    match m.fault with
    | None -> None
    | Some f -> Some (f.f_site, f.f_remaining)

  let fired m = m.faults_fired

  let site_to_string = function
    | Mk -> "mk"
    | Cache_probe -> "probe"
    | Gc -> "gc"
    | Step -> "step"

  let site_of_string = function
    | "mk" -> Some Mk
    | "probe" -> Some Cache_probe
    | "gc" -> Some Gc
    | "step" -> Some Step
    | _ -> None
end

let pp ppf f =
  if f = 0 then Format.fprintf ppf "false"
  else if f = 1 then Format.fprintf ppf "true"
  else Format.fprintf ppf "<bdd #%d>" f

let to_dot ?(name = fun v -> Printf.sprintf "v%d" v) m f =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph bdd {\n";
  Buffer.add_string buf "  node [shape=circle];\n";
  Buffer.add_string buf "  f0 [label=\"0\", shape=box];\n";
  Buffer.add_string buf "  f1 [label=\"1\", shape=box];\n";
  let seen = Hashtbl.create 64 in
  let node_name f =
    if f = 0 then "f0" else if f = 1 then "f1" else Printf.sprintf "n%d" f
  in
  let rec go f =
    if f >= 2 && not (Hashtbl.mem seen f) then begin
      Hashtbl.add seen f ();
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\"];\n" f (name m.n_var.(f)));
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> %s [style=dashed];\n" f
           (node_name m.n_lo.(f)));
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> %s;\n" f (node_name m.n_hi.(f)));
      go m.n_lo.(f);
      go m.n_hi.(f)
    end
  in
  go f;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Snapshots: a versioned, checksummed binary dump of the packed node
   store, for crash-only warm-state persistence.  Only the canonical
   structure travels — columns, free list, order permutation, and the
   flattened root handles.  Unique subtables
   and op-caches are derived state and are rebuilt from scratch on
   load: the rebuild re-proves canonicity node by node (a duplicate
   key raises [Corrupt]), so a snapshot can never import a corrupted
   table, and a cache is only ever a performance artifact. *)

module Snapshot = struct
  exception Corrupt of string

  let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

  (* Format: 8-byte magic (carries the version), a 16-byte [Digest]
     of the payload, then the payload as a little-endian int64
     sequence.  Bumping the layout bumps the magic. *)
  let magic = "BDDSNAP2"

  let dump m =
    let b = Buffer.create (64 + (24 * m.n_next)) in
    let put n = Buffer.add_int64_le b (Int64.of_int n) in
    put m.n_next;
    put m.free_head;
    put m.total_created;
    put m.live;
    put m.peak_nodes;
    put m.nvars;
    put m.cache_limit;
    for e = 2 to m.n_next - 1 do
      put m.n_var.(e);
      put m.n_lo.(e);
      put m.n_hi.(e)
    done;
    for v = 0 to m.nvars - 1 do
      put m.var2lvl.(v)
    done;
    for v = 0 to m.nvars - 1 do
      put m.lvl2var.(v)
    done;
    (* Root handles, flattened from the registered providers and
       deduplicated with a stable order: providers are closures and
       cannot travel, so the restored manager gets one static root
       pinning exactly the nodes these providers reach today. *)
    let root_handles =
      Hashtbl.fold (fun _ provider acc -> provider () @ acc) m.roots []
      |> List.sort_uniq Int.compare
    in
    put (List.length root_handles);
    List.iter put root_handles;
    let payload = Buffer.contents b in
    let out = Buffer.create (24 + String.length payload) in
    Buffer.add_string out magic;
    Buffer.add_string out (Digest.string payload);
    Buffer.add_string out payload;
    Buffer.contents out

  let load blob =
    let len = String.length blob in
    if len < 24 then corrupt "snapshot too short (%d bytes)" len;
    if String.sub blob 0 8 <> magic then
      corrupt "bad magic %S (want %S)" (String.sub blob 0 8) magic;
    if String.sub blob 8 16 <> Digest.string (String.sub blob 24 (len - 24))
    then corrupt "checksum mismatch";
    let pos = ref 24 in
    let get () =
      if !pos + 8 > len then corrupt "truncated payload at byte %d" !pos;
      let v = Int64.to_int (String.get_int64_le blob !pos) in
      pos := !pos + 8;
      v
    in
    let n_next = get () in
    let free_head = get () in
    let total_created = get () in
    let live = get () in
    let peak_nodes = get () in
    let nvars = get () in
    let climit = get () in
    if n_next < 2 then corrupt "bad watermark %d" n_next;
    if nvars < 0 then corrupt "bad variable count %d" nvars;
    if live < 0 || live > n_next - 2 then corrupt "bad live count %d" live;
    let m = create () in
    let cap = pow2_at_least (max 1024 n_next) in
    m.n_var <- Array.make cap (-1);
    m.n_lo <- Array.make cap 0;
    m.n_hi <- Array.make cap 0;
    m.n_cap <- cap;
    m.n_next <- n_next;
    m.free_head <- free_head;
    m.total_created <- total_created;
    m.live <- 0 (* recounted by the subtable rebuild below *);
    for e = 2 to n_next - 1 do
      m.n_var.(e) <- get ();
      m.n_lo.(e) <- get ();
      m.n_hi.(e) <- get ()
    done;
    if nvars > 0 then ensure_var m (nvars - 1);
    let perm name =
      let a = Array.init nvars (fun _ -> get ()) in
      let seen = Array.make nvars false in
      Array.iter
        (fun l ->
          if l < 0 || l >= nvars then corrupt "%s out of range: %d" name l
          else if seen.(l) then corrupt "%s not a permutation (%d twice)" name l
          else seen.(l) <- true)
        a;
      a
    in
    let var2lvl = perm "var2lvl" in
    let lvl2var = perm "lvl2var" in
    Array.iteri
      (fun v l ->
        if lvl2var.(l) <> v then corrupt "var2lvl/lvl2var not inverse at %d" v)
      var2lvl;
    Array.blit var2lvl 0 m.var2lvl 0 nvars;
    Array.blit lvl2var 0 m.lvl2var 0 nvars;
    let nroots = get () in
    if nroots < 0 || nroots > n_next then corrupt "bad root count %d" nroots;
    let root_handles = List.init nroots (fun _ -> get ()) in
    (* Rebuild the unique subtables from the columns, re-proving the
       canonical invariants for every table entry: children in range
       and not on the free list, lo <> hi, child levels strictly
       deeper, and no duplicate (var, lo, hi) triple. *)
    for e = 2 to n_next - 1 do
      let v = m.n_var.(e) in
      if v >= 0 then begin
        if v >= nvars then corrupt "node %d has variable %d >= %d" e v nvars;
        let lo = m.n_lo.(e) and hi = m.n_hi.(e) in
        let child c =
          if c < 0 || c >= n_next then corrupt "node %d: child %d out of range" e c;
          if c >= 2 && m.n_var.(c) < 0 then
            corrupt "node %d: child %d is a free slot" e c
        in
        child lo;
        child hi;
        if lo = hi then corrupt "node %d is redundant (lo = hi)" e;
        let deeper c =
          c >= 2 && m.var2lvl.(m.n_var.(c)) <= m.var2lvl.(v)
        in
        if deeper lo || deeper hi then
          corrupt "node %d: child above its level" e;
        if not (sub_insert m m.subs.(v) e) then
          corrupt "duplicate node (%d, %d, %d)" v lo hi;
        m.live <- m.live + 1
      end
    done;
    if m.live <> live then
      corrupt "live count mismatch: header %d, rebuilt %d" live m.live;
    (* Walk the free list: every slot must be a hole, and the walk
       must terminate without revisiting (the visited byte doubles as
       the cycle guard). *)
    let freeseen = Bytes.make n_next '\000' in
    let nfree = ref 0 in
    let f = ref m.free_head in
    while !f >= 0 do
      if !f < 2 || !f >= n_next then corrupt "free list leaves the store";
      if m.n_var.(!f) >= 0 then corrupt "free list hits live slot %d" !f;
      if Bytes.get freeseen !f <> '\000' then corrupt "free list cycle";
      Bytes.set freeseen !f '\001';
      incr nfree;
      f := m.n_lo.(!f)
    done;
    for e = 2 to n_next - 1 do
      if m.n_var.(e) < 0 && Bytes.get freeseen e = '\000' then
        corrupt "hole %d not on the free list" e
    done;
    if !nfree + m.live <> n_next - 2 then
      corrupt "slot accounting: %d free + %d live <> %d" !nfree m.live
        (n_next - 2);
    List.iter
      (fun r ->
        if r < 0 || r >= n_next || (r >= 2 && m.n_var.(r) < 0) then
          corrupt "root handle %d is not a node" r)
      root_handles;
    m.peak_nodes <- max peak_nodes m.live;
    set_cache_limit m (if climit = max_int then None else Some climit);
    ignore (add_root m (fun () -> root_handles) : int);
    m

  let save m ~path =
    let blob = dump m in
    let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
    let oc = open_out_bin tmp in
    (try
       output_string oc blob;
       close_out oc
     with e ->
       close_out_noerr oc;
       (try Sys.remove tmp with Sys_error _ -> ());
       raise e);
    Sys.rename tmp path

  let restore ~path =
    let ic = open_in_bin path in
    let blob =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    load blob
end
