(* Reduced ordered BDDs with hash-consing, memoised operations, and
   dynamic variable reordering, over an unboxed int-packed node store.

   Representation.  A diagram handle [t] is an [int]: 0 is the constant
   false, 1 the constant true, and any index >= 2 names a slot in the
   manager's struct-of-arrays columns [n_var]/[n_lo]/[n_hi].  A node is
   therefore three adjacent-by-index array cells, not a boxed record:
   the OCaml GC never traverses the store, [mk] allocates nothing on
   the OCaml heap, and a cofactor read is one bounds-checked array
   load.  Free slots (after [gc] or a reordering reap) carry
   [n_var = -1] and are threaded into a free list through [n_lo].

   The unique table is open addressing, split per variable: each
   variable owns a power-of-two slot array probed linearly (-1 empty,
   -2 tombstone), grown geometrically at 3/4 load with a full rehash
   that also clears tombstones.  Splitting per variable is what keeps
   an adjacent-level exchange local to the two affected subtables.

   The five operation caches (ite / exists / forall / relprod /
   constrain) are direct-mapped int-packed arrays: one slot per hash,
   a probe is one multiply and 3-4 array reads, and an insert that
   lands on a live entry with a different key simply overwrites it
   (counted as an eviction).  This replaces the boxed scheme's
   tuple-keyed hash tables with whole-table reset eviction: results
   never change — caches only affect sharing of work — so a displaced
   entry merely forces recomputation.

   Invariants maintained by [mk]:
   - ordering: on every path from the root, variable *levels* strictly
     increase (the manager holds a mutable var <-> level bijection;
     with the default identity order, levels coincide with variable
     indices);
   - reduction: no node has [low == high], and no two distinct nodes
     of the same variable have the same (low, high) pair (per-variable
     unique subtables).

   Under these invariants structural identity is semantic equivalence,
   so [equal] is constant-time and operation caches are keyed directly
   by handles.

   Reordering works by adjacent-level swap: a node of the upper
   variable that depends on the lower one is rewritten *in place*
   (its [n_var]/[n_lo]/[n_hi] cells) to denote the same boolean
   function with the two variables exchanged, so external handles
   survive — only the two affected unique subtables are touched.  See
   the [Reorder] section below for the full invariant story.

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
  live_nodes : int;
  peak_nodes : int;
  total_nodes : int;
  cache_evictions : int;
  gc_runs : int;
  gc_collected : int;
  reorders : int;
  reorder_ms : float;
  reorder_saved : int;
  cache_stores : int;
  unique_lookups : int;
  unique_probes : int;
  store_capacity : int;
  unique_capacity : int;
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
         coordinator cancelling worker domains), and a plain field
         written by one domain has no visibility guarantee in another.
         The flag may be shared between several bundles (one per worker
         spec) so a single store cancels them all. *)
}

(* Deterministic fault injection (public face: the [Fault] submodule).
   An armed fault names a site and a countdown; the matching hook
   decrements it and, at zero, disarms itself and raises.  One-shot by
   construction: a retry attempt after a recovery never re-trips the
   same injection.  Defined before [man] because the manager carries
   the armed fault. *)

type fault_site = Mk | Cache_probe | Gc | Step | Reorder

type fault = { f_site : fault_site; mutable f_remaining : int }

(* One variable's unique subtable: a power-of-two slot array of node
   indices probed linearly.  -1 marks an empty slot, -2 a tombstone
   left by a removal (reordering, gc rebuilds afresh instead).  The
   key of a stored node is its (n_lo, n_hi) pair, read back from the
   columns — the table itself holds only indices. *)
type sub = {
  mutable s_slots : int array;
  mutable s_count : int; (* live entries *)
  mutable s_tombs : int; (* tombstones *)
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

type man = {
  (* --- the node store: struct-of-arrays columns --- *)
  mutable n_var : int array; (* variable, or -1 for a free slot *)
  mutable n_lo : int array;  (* else-child; free-list next when free *)
  mutable n_hi : int array;  (* then-child *)
  mutable n_cap : int;       (* column capacity (doubles on demand) *)
  mutable n_next : int;      (* allocation watermark (indices 0/1 reserved) *)
  mutable free_head : int;   (* head of the free list, or -1 *)
  mutable total_created : int; (* nodes ever allocated *)
  (* Unique tables, one per variable, keyed by (low, high).  Splitting
     the table per variable is what makes an adjacent-level swap touch
     only the two affected subtables. *)
  mutable subs : sub array;
  mutable nvars : int;         (* variables ever mentioned *)
  mutable var2lvl : int array; (* variable -> level, a permutation *)
  mutable lvl2var : int array; (* level -> variable, its inverse *)
  mutable pair_with : int array;
      (* grouped-sifting partner of each variable, or -1; pairs are
         kept level-adjacent by [reorder] *)
  mutable live : int; (* total nodes across the subtables *)
  mutable zombies : int list;
      (* slots detached from the unique table by a reordering reap but
         whose columns are kept readable: a client may still hold the
         handle (the boxed store kept such records alive through the
         OCaml GC).  The next [gc] releases the unmarked ones. *)
  ite_cache : cache;
  exists_cache : cache;
  forall_cache : cache;
  relprod_cache : cache;
  constrain_cache : cache;
  mutable cache_limit : int;
      (* requested per-cache entry bound; [max_int] means unbounded *)
  mutable cache_cap : int;
      (* realised per-cache capacity cap: the largest power of two
         within [cache_limit], or the hard cap when unbounded *)
  cache_entries0 : int; (* initial (and post-clear) per-cache entries *)
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
  roots : (int, unit -> t list) Hashtbl.t;
  mutable next_root : int;
  mutable limits : limits option;
      (* the attached governance record, polled from the hot loops *)
  mutable poll_countdown : int;
      (* cache probes until the next full limits check *)
  mutable fault : fault option;
      (* armed fault injection, if any (chaos testing only) *)
  mutable faults_fired : int;
  (* --- dynamic reordering state --- *)
  mutable in_reorder : bool;   (* a swap/sift is running *)
  mutable reorders : int;
  mutable reorder_ms : float;
  mutable reorder_saved : int;      (* nodes reclaimed by reordering *)
}

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
   cache past a quarter-million entries stops gaining hits and starts
   costing resident memory (each entry is 3-4 words forever). *)
let cache_hard_cap = 1 lsl 18

let cache_make stride entries =
  {
    c_stride = stride;
    c_data = Array.make (entries * stride) (-1);
    c_mask = entries - 1;
    c_stores = 0;
    c_over = 0;
    c_since = 0;
  }

let fresh_sub () = { s_slots = Array.make 16 (-1); s_count = 0; s_tombs = 0 }

let create ?(unique_size = 20_011) ?(cache_size = 20_011) ?cache_limit () =
  let climit = match cache_limit with Some n -> n | None -> max_int in
  let cache_cap =
    if climit = max_int then cache_hard_cap
    else max 1 (pow2_at_most (max 1 climit))
  in
  let entries0 =
    min (pow2_at_least (max 256 (min 4096 (max 1 (cache_size / 8))))) cache_cap
  in
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
    subs = Array.init 64 (fun _ -> fresh_sub ());
    nvars = 0;
    var2lvl = Array.make 64 (-1);
    lvl2var = Array.make 64 (-1);
    pair_with = Array.make 64 (-1);
    live = 0;
    zombies = [];
    ite_cache = cache_make 4 entries0;
    exists_cache = cache_make 3 entries0;
    forall_cache = cache_make 3 entries0;
    relprod_cache = cache_make 4 entries0;
    constrain_cache = cache_make 3 entries0;
    cache_limit = climit;
    cache_cap;
    cache_entries0 = entries0;
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
    roots = Hashtbl.create 16;
    next_root = 0;
    limits = None;
    poll_countdown = poll_interval;
    fault = None;
    faults_fired = 0;
    in_reorder = false;
    reorders = 0;
    reorder_ms = 0.0;
    reorder_saved = 0;
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
      let st =
        Array.init newcap (fun i ->
            if i < cap then m.subs.(i) else fresh_sub ())
      in
      let grow a =
        let a' = Array.make newcap (-1) in
        Array.blit a 0 a' 0 m.nvars;
        a'
      in
      let v2l = grow m.var2lvl and l2v = grow m.lvl2var in
      let pw = grow m.pair_with in
      m.subs <- st;
      m.var2lvl <- v2l;
      m.lvl2var <- l2v;
      m.pair_with <- pw
    end;
    for i = m.nvars to n - 1 do
      m.var2lvl.(i) <- i;
      m.lvl2var.(i) <- i
    done;
    m.nvars <- n
  end

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
  shrink m.ite_cache;
  shrink m.exists_cache;
  shrink m.forall_cache;
  shrink m.relprod_cache;
  shrink m.constrain_cache

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
  {
    ite = snapshot_op m.ite_stat;
    exists = snapshot_op m.exists_stat;
    forall = snapshot_op m.forall_stat;
    relprod = snapshot_op m.relprod_stat;
    constrain = snapshot_op m.constrain_stat;
    live_nodes = live_nodes m;
    peak_nodes = m.peak_nodes;
    total_nodes = count_nodes m;
    cache_evictions = m.evictions;
    gc_runs = m.gc_runs;
    gc_collected = m.gc_collected;
    reorders = m.reorders;
    reorder_ms = m.reorder_ms;
    reorder_saved = m.reorder_saved;
    cache_stores =
      m.ite_cache.c_stores + m.exists_cache.c_stores
      + m.forall_cache.c_stores + m.relprod_cache.c_stores
      + m.constrain_cache.c_stores;
    unique_lookups = m.unique_lookups;
    unique_probes = m.unique_probes;
    store_capacity = m.n_cap;
    unique_capacity = unique_capacity m;
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
let poll m =
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
let fault_tick m site =
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

let mix2 a b =
  let h = (a * 0x9e3779b1) lxor (b * 0x85ebca77) in
  h lxor (h lsr 16)

let mix3 a b c =
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
   [Hashtbl.reset]: contents gone, resident memory returned. *)
let cache_reset m c =
  let entries = min m.cache_entries0 m.cache_cap in
  c.c_data <- Array.make (entries * c.c_stride) (-1);
  c.c_mask <- entries - 1;
  c.c_since <- 0

let clear_caches m =
  cache_reset m m.ite_cache;
  cache_reset m m.constrain_cache;
  cache_reset m m.exists_cache;
  cache_reset m m.forall_cache;
  cache_reset m m.relprod_cache

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

let release_slot m n =
  m.n_var.(n) <- -1;
  m.n_lo.(n) <- m.free_head;
  m.n_hi.(n) <- -1;
  m.free_head <- n

let free_node m n =
  release_slot m n;
  m.live <- m.live - 1

let hash_uid lo hi =
  let h = (lo * 0x9e3779b1) lxor (hi * 0x61c88647) in
  h lxor (h lsr 16)

(* Rehash a subtable into a fresh slot array sized for its live count;
   tombstones evaporate.  Also the growth path: load (live + tombs) is
   kept under 3/4 so probe chains stay short and terminate. *)
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
  s.s_slots <- slots;
  s.s_tombs <- 0

(* Find the node with key (lo, hi), or -1. *)
let sub_find m s lo hi =
  let slots = s.s_slots in
  let mask = Array.length slots - 1 in
  let j = ref (hash_uid lo hi land mask) in
  let r = ref (-1) and looking = ref true in
  while !looking do
    let e = slots.(!j) in
    if e = -1 then looking := false
    else begin
      if e >= 2 && m.n_lo.(e) = lo && m.n_hi.(e) = hi then begin
        r := e;
        looking := false
      end
      else j := (!j + 1) land mask
    end
  done;
  !r

(* Remove node [e] (found by its current key); leaves a tombstone. *)
let sub_remove m s e =
  let slots = s.s_slots in
  let mask = Array.length slots - 1 in
  let j = ref (hash_uid m.n_lo.(e) m.n_hi.(e) land mask) in
  let looking = ref true in
  while !looking do
    let e' = slots.(!j) in
    if e' = e then begin
      slots.(!j) <- -2;
      s.s_count <- s.s_count - 1;
      s.s_tombs <- s.s_tombs + 1;
      looking := false
    end
    else if e' = -1 then looking := false
    else j := (!j + 1) land mask
  done

(* Insert node [e] under its current key, which must be absent (the
   reordering paths guarantee it; [mk] inlines its own probe). *)
let sub_insert m s e =
  assert (sub_find m s m.n_lo.(e) m.n_hi.(e) = -1);
  let slots = s.s_slots in
  let mask = Array.length slots - 1 in
  let j = ref (hash_uid m.n_lo.(e) m.n_hi.(e) land mask) in
  let looking = ref true in
  while !looking do
    match slots.(!j) with
    | -1 ->
      slots.(!j) <- e;
      looking := false
    | -2 ->
      slots.(!j) <- e;
      s.s_tombs <- s.s_tombs - 1;
      looking := false
    | _ -> j := (!j + 1) land mask
  done;
  s.s_count <- s.s_count + 1;
  if 4 * (s.s_count + s.s_tombs + 1) > 3 * (mask + 1) then sub_grow m s

(* ------------------------------------------------------------------ *)
(* Handles and structure. *)

let zero _ = 0
let one _ = 1
let id (f : t) : int = f
let is_zero f = f = 0
let is_one f = f = 1
let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b
let hash (f : t) = f

let topvar m f =
  if f >= 2 then m.n_var.(f) else invalid_arg "Bdd.topvar: constant"

let low m f = if f >= 2 then m.n_lo.(f) else invalid_arg "Bdd.low: constant"
let high m f = if f >= 2 then m.n_hi.(f) else invalid_arg "Bdd.high: constant"

(* Root level, treating constants as deeper than everything.  With the
   default identity order this is the root variable index, so every
   level comparison below reproduces the historic var comparison
   bit-for-bit. *)
let lvl m f = if f < 2 then max_int else m.var2lvl.(m.n_var.(f))

(* The only node constructor: reduces and hash-conses.  The probe
   remembers the first tombstone so removals (reordering) do not
   lengthen chains forever. *)
let mk m v lo hi =
  fault_tick m Mk;
  if lo = hi then lo
  else begin
    ensure_var m v;
    let s = m.subs.(v) in
    let slots = s.s_slots in
    let mask = Array.length slots - 1 in
    let j = ref (hash_uid lo hi land mask) in
    let tomb = ref (-1) and found = ref (-1) in
    let probes = ref 1 and looking = ref true in
    while !looking do
      let e = slots.(!j) in
      if e = -1 then looking := false
      else if e = -2 then begin
        if !tomb < 0 then tomb := !j;
        j := (!j + 1) land mask;
        incr probes
      end
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
      if !tomb >= 0 then begin
        slots.(!tomb) <- n;
        s.s_tombs <- s.s_tombs - 1
      end
      else slots.(!j) <- n;
      s.s_count <- s.s_count + 1;
      if 4 * (s.s_count + s.s_tombs + 1) > 3 * (mask + 1) then sub_grow m s;
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
let cof0 m f v = if f >= 2 && m.n_var.(f) = v then m.n_lo.(f) else f
let cof1 m f v = if f >= 2 && m.n_var.(f) = v then m.n_hi.(f) else f

let rec ite m f g h =
  m.ite_stat.calls <- m.ite_stat.calls + 1;
  if f = 1 then g
  else if f = 0 then h
  else if g = h then g
  else if g = 1 && h = 0 then f
  else begin
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
let subset m f g = is_zero (diff m f g)

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
  let sorted = List.sort_uniq Stdlib.compare vs in
  List.iter
    (fun v ->
      if v < 0 then invalid_arg "Bdd.cube: negative variable";
      ensure_var m v)
    sorted;
  (* Build bottom-up in *level* order, deepest variable innermost. *)
  let by_level =
    List.stable_sort
      (fun a b -> Stdlib.compare m.var2lvl.(a) m.var2lvl.(b))
      sorted
  in
  List.fold_right (fun v acc -> mk m v 0 acc) by_level 1

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

let rename m f perm =
  (* [perm] must be injective on the support: two source variables
     mapped to one target would silently conflate their cofactors and
     produce a wrong diagram, so detect it up front (one O(size f)
     sweep, dominated by the rebuild below). *)
  let seen = Hashtbl.create 64 in
  let targets = Hashtbl.create 16 in
  let rec check f =
    if f >= 2 && not (Hashtbl.mem seen f) then begin
      Hashtbl.add seen f ();
      let v = m.n_var.(f) in
      let v' = perm v in
      if v' < 0 then invalid_arg "Bdd.rename: negative target variable";
      (match Hashtbl.find_opt targets v' with
      | Some src when src <> v ->
        invalid_arg "Bdd.rename: permutation not injective on support"
      | Some _ -> ()
      | None -> Hashtbl.add targets v' v);
      check m.n_lo.(f);
      check m.n_hi.(f)
    end
  in
  check f;
  (* Rebuild bottom-up through ITE so that non-monotone permutations
     (in the *order* sense: the source walk needs no relation to the
     manager's current levels) are handled correctly; memoised per
     call. *)
  let memo = Hashtbl.create 1024 in
  let rec go f =
    if f < 2 then f
    else
      match Hashtbl.find_opt memo f with
      | Some r -> r
      | None ->
        let r = ite m (var m (perm m.n_var.(f))) (go m.n_hi.(f)) (go m.n_lo.(f)) in
        Hashtbl.add memo f r;
        r
  in
  go f

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
  |> List.sort Stdlib.compare

let size m f =
  let seen = Hashtbl.create 64 in
  let rec go f =
    if f >= 2 && not (Hashtbl.mem seen f) then begin
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
  go [] f |> List.sort (fun (a, _) (b, _) -> Stdlib.compare a b)

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
      (List.sort_uniq Stdlib.compare vars)
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
           Stdlib.compare m.var2lvl.(vars_a.(i)) m.var2lvl.(vars_a.(j)))
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

(* Cross-manager copy, order-independent.  The fast path copies node
   by node through [mk]: valid whenever the destination order agrees
   with the source structure (every parent sits above both children in
   [dst]'s order), which is checked per node — one array read per
   edge.  The copy is then [dst]'s canonical diagram for the same
   function (copying is injective on structure, so reduction is
   preserved).  When the orders disagree the copy falls back to a
   memoised bottom-up ITE rebuild keyed by source var *ids*, which
   re-canonicalises in [dst]'s order — this is what lets parallel
   workers hold different orders than the coordinator.  Only the
   immutable-for-the-duration columns of [src] are read, never its
   tables or caches, so transfers may run from another domain (the
   source manager must be quiescent: no operations, no gc, and no
   reordering while a transfer reads it). *)
exception Transfer_order

let transfer ~src ~dst f =
  let memo : (int, t) Hashtbl.t = Hashtbl.create 1024 in
  let structural () =
    let rec go f =
      if f < 2 then f
      else
        match Hashtbl.find_opt memo f with
        | Some r -> r
        | None ->
          let v = src.n_var.(f) in
          let lo = go src.n_lo.(f) in
          let hi = go src.n_hi.(f) in
          ensure_var dst v;
          let lp = dst.var2lvl.(v) in
          if lp >= lvl dst lo || lp >= lvl dst hi then raise Transfer_order;
          let r = mk dst v lo hi in
          Hashtbl.add memo f r;
          r
    in
    go f
  in
  match structural () with
  | r -> r
  | exception Transfer_order ->
    Hashtbl.reset memo;
    let rec go f =
      if f < 2 then f
      else
        match Hashtbl.find_opt memo f with
        | Some r -> r
        | None ->
          let r =
            ite dst (var dst src.n_var.(f)) (go src.n_hi.(f))
              (go src.n_lo.(f))
          in
          Hashtbl.add memo f r;
          r
    in
    go f

(* ------------------------------------------------------------------ *)
(* Statistics.                                                         *)

let cache_hits s =
  s.ite.hits + s.exists.hits + s.forall.hits + s.relprod.hits
  + s.constrain.hits

let cache_misses s =
  s.ite.misses + s.exists.misses + s.forall.misses + s.relprod.misses
  + s.constrain.misses

(* Pointwise sum of two snapshots, for aggregating the managers of a
   parallel run into one report.  Summing [peak_nodes] across managers
   that were live at the same time gives an upper bound on the
   simultaneous footprint, which is the number a memory budget cares
   about; capacities sum the same way. *)
let merge_stats a b =
  let op (x : op_stats) (y : op_stats) =
    { calls = x.calls + y.calls;
      hits = x.hits + y.hits;
      misses = x.misses + y.misses }
  in
  {
    ite = op a.ite b.ite;
    exists = op a.exists b.exists;
    forall = op a.forall b.forall;
    relprod = op a.relprod b.relprod;
    constrain = op a.constrain b.constrain;
    live_nodes = a.live_nodes + b.live_nodes;
    peak_nodes = a.peak_nodes + b.peak_nodes;
    total_nodes = a.total_nodes + b.total_nodes;
    cache_evictions = a.cache_evictions + b.cache_evictions;
    gc_runs = a.gc_runs + b.gc_runs;
    gc_collected = a.gc_collected + b.gc_collected;
    reorders = a.reorders + b.reorders;
    reorder_ms = a.reorder_ms +. b.reorder_ms;
    reorder_saved = a.reorder_saved + b.reorder_saved;
    cache_stores = a.cache_stores + b.cache_stores;
    unique_lookups = a.unique_lookups + b.unique_lookups;
    unique_probes = a.unique_probes + b.unique_probes;
    store_capacity = a.store_capacity + b.store_capacity;
    unique_capacity = a.unique_capacity + b.unique_capacity;
  }

(* The per-request counterpart of [merge_stats]: attribute the work of
   one governed region of a long-lived (warm) manager by subtracting a
   snapshot taken at region entry.  Monotone counters subtract;
   [live_nodes], [peak_nodes] and the capacity readings are
   instantaneous, so the later snapshot's values are kept (pair with
   [reset_peak] when the region's own peak is wanted). *)
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
    live_nodes = after.live_nodes;
    peak_nodes = after.peak_nodes;
    total_nodes = after.total_nodes - before.total_nodes;
    cache_evictions = after.cache_evictions - before.cache_evictions;
    gc_runs = after.gc_runs - before.gc_runs;
    gc_collected = after.gc_collected - before.gc_collected;
    reorders = after.reorders - before.reorders;
    reorder_ms = after.reorder_ms -. before.reorder_ms;
    reorder_saved = after.reorder_saved - before.reorder_saved;
    cache_stores = after.cache_stores - before.cache_stores;
    unique_lookups = after.unique_lookups - before.unique_lookups;
    unique_probes = after.unique_probes - before.unique_probes;
    store_capacity = after.store_capacity;
    unique_capacity = after.unique_capacity;
  }

let reset_peak m = m.peak_nodes <- m.live

let reset_stats m =
  let reset (s : opstat) =
    s.calls <- 0;
    s.hits <- 0;
    s.misses <- 0
  in
  reset m.ite_stat;
  reset m.exists_stat;
  reset m.forall_stat;
  reset m.relprod_stat;
  reset m.constrain_stat;
  let rcache c =
    c.c_stores <- 0;
    c.c_over <- 0
  in
  rcache m.ite_cache;
  rcache m.exists_cache;
  rcache m.forall_cache;
  rcache m.relprod_cache;
  rcache m.constrain_cache;
  m.evictions <- 0;
  m.unique_lookups <- 0;
  m.unique_probes <- 0;
  m.gc_runs <- 0;
  m.gc_collected <- 0;
  m.peak_nodes <- live_nodes m;
  m.reorders <- 0;
  m.reorder_ms <- 0.0;
  m.reorder_saved <- 0

let pp_stats ppf s =
  let op name (o : op_stats) =
    Format.fprintf ppf "  %-10s %10d calls %10d hits %10d misses@," name
      o.calls o.hits o.misses
  in
  Format.fprintf ppf "@[<v>BDD manager: %d live nodes (peak %d, %d allocated)@,"
    s.live_nodes s.peak_nodes s.total_nodes;
  op "ite" s.ite;
  op "exists" s.exists;
  op "forall" s.forall;
  op "relprod" s.relprod;
  op "constrain" s.constrain;
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
  (* Printed only when reordering actually ran, so a --reorder none run
     reports byte-identically to managers that predate reordering. *)
  if s.reorders > 0 then
    Format.fprintf ppf "@,  reorders %d (saved %d nodes, %.1f ms)" s.reorders
      s.reorder_saved s.reorder_ms;
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

let iter_nodes m f =
  for v = 0 to m.nvars - 1 do
    Array.iter (fun e -> if e >= 2 then f e) m.subs.(v).s_slots
  done

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
      s.s_count <- !surv;
      s.s_tombs <- 0
    end
    else if s.s_tombs > 0 then begin
      Array.fill s.s_slots 0 (Array.length s.s_slots) (-1);
      s.s_tombs <- 0
    end
  done;
  (* Zombie slots (detached from the table by a reordering reap but
     kept readable for client-held handles): release the ones no root
     marks.  Their live count was already decremented at detach time,
     so this frees columns only. *)
  m.zombies <-
    List.filter
      (fun z ->
        if m.n_var.(z) < 0 then false
        else if Bytes.get marks z = '\000' then begin
          release_slot m z;
          false
        end
        else true)
      m.zombies;
  (* The operation caches may hold handles of nodes just swept (whose
     indices a later [mk] will recycle); returning one would break
     canonicity, so they must go too. *)
  clear_caches m;
  let collected = before - m.live in
  m.gc_runs <- m.gc_runs + 1;
  m.gc_collected <- m.gc_collected + collected;
  collected

(* ------------------------------------------------------------------ *)
(* Dynamic variable reordering (Rudell sifting).

   The primitive is the adjacent-level swap.  Let x be the variable at
   level l and y at level l+1.  Every x-node n = (x, f0, f1) with at
   least one child rooted at y is rewritten in place to

       n := (y, mk(x, f00, f10), mk(x, f01, f11))

   where fij is the y=j cofactor of fi — the same boolean function
   with the two levels exchanged.  The rewrite mutates n's column
   cells, so n's index (and every external [t] handle to it) survives;
   only subtable x (n's old entry leaves) and subtable y (its new
   entry arrives) change.  x-nodes not depending on y, and all other
   levels, are untouched.  No unique-table collisions can occur: a
   collision would exhibit two distinct nodes for one function
   *before* the swap, contradicting canonicity.

   Children orphaned by rewrites (the old f0/f1 and, recursively,
   their descendants) are reclaimed by local reference counting so
   the sifting size metric is exact.  Parent counts live in a scratch
   int array indexed by node ([ensure_parents] re-syncs it after
   column growth); protection is a byte per node fixed at sweep start.
   A node that had no in-table parent when the reorder started (a
   client-held result top, or garbage we must not touch because
   clients may hold it) and every root-provider top is never
   reclaimed; everything else dies when its last in-table parent
   drops it.  Reclaimed indices go onto the free list and may be
   recycled by [reorder_mk] within the same sweep — the recycling
   path resets the recycled index's parent count and protection bit,
   so no stale state survives.  This gives reordering the same
   contract as [gc]: diagrams whose roots are registered (or simply
   held as handles) survive with identities and meaning intact;
   resurrecting an *interior* node of an unrooted diagram afterwards
   is unsound.

   The operation caches are structurally still correct after a swap
   (every node keeps its function) but may reference reclaimed
   indices, so they are flushed when the reorder finishes — also on
   an abort: [Limits] is polled between block exchanges, and each
   swap is atomic, so a deadline abort mid-sift leaves a consistent
   manager with whatever order the sift had reached. *)

let ensure_parents m pr =
  if Array.length !pr < m.n_cap then begin
    let a = Array.make m.n_cap 0 in
    Array.blit !pr 0 a 0 (Array.length !pr);
    pr := a
  end

let protected_ protect n = n < Bytes.length protect && Bytes.get protect n <> '\000'

let reorder_mk m pr protect v lo hi =
  if lo = hi then lo
  else begin
    let s = m.subs.(v) in
    let e = sub_find m s lo hi in
    if e >= 0 then e
    else begin
      let n = alloc_node m v lo hi in
      ensure_parents m pr;
      (* A recycled index may carry the reaped node's count/protection;
         this node is brand new, so reset both. *)
      !pr.(n) <- 0;
      if n < Bytes.length protect then Bytes.set protect n '\000';
      sub_insert m s n;
      (* Creation edges: the new node's children gain one parent. *)
      if lo >= 2 then !pr.(lo) <- !pr.(lo) + 1;
      if hi >= 2 then !pr.(hi) <- !pr.(hi) + 1;
      n
    end
  end

(* Reclaim the unreferenced, unprotected nodes queued by a swap,
   cascading through their children.  Each candidate is re-validated
   before detaching: still allocated, still parentless, unprotected,
   and still the unique-table entry for its key.  Detach, don't free:
   the slot leaves the table (so canonicity and the sifting size
   metric are exact) but its columns stay readable, because a client
   may still hold the handle — the boxed store kept such records alive
   through the OCaml GC, and [eval]/[size] on them must keep working.
   The next [gc] releases the ones no root marks. *)
let reorder_reap m pr protect queue =
  let rec drain () =
    match Queue.take_opt queue with
    | None -> ()
    | Some c ->
      (if
         c >= 2 && m.n_var.(c) >= 0 && !pr.(c) = 0
         && not (protected_ protect c)
       then begin
         let s = m.subs.(m.n_var.(c)) in
         let lo = m.n_lo.(c) and hi = m.n_hi.(c) in
         if sub_find m s lo hi = c then begin
           sub_remove m s c;
           m.live <- m.live - 1;
           m.zombies <- c :: m.zombies;
           let drop g =
             if g >= 2 then begin
               let r = !pr.(g) - 1 in
               !pr.(g) <- r;
               if r = 0 then Queue.add g queue
             end
           in
           drop lo;
           drop hi
         end
       end);
      drain ()
  in
  drain ()

(* Exchange levels l and l+1.  Atomic: no limit polls, no fault hooks,
   so an exception can only enter between swaps and the manager is
   always consistent. *)
let swap_levels m pr protect l =
  let x = m.lvl2var.(l) and y = m.lvl2var.(l + 1) in
  let xt = m.subs.(x) and yt = m.subs.(y) in
  let dep f = f >= 2 && m.n_var.(f) = y in
  let moving =
    Array.fold_left
      (fun acc e ->
        if e >= 2 && (dep m.n_lo.(e) || dep m.n_hi.(e)) then e :: acc else acc)
      [] xt.s_slots
  in
  let queue = Queue.create () in
  let decr f =
    if f >= 2 then begin
      let r = !pr.(f) - 1 in
      !pr.(f) <- r;
      if r = 0 && not (protected_ protect f) then Queue.add f queue
    end
  in
  let incr_ f = if f >= 2 then !pr.(f) <- !pr.(f) + 1 in
  List.iter
    (fun e ->
      let f0 = m.n_lo.(e) and f1 = m.n_hi.(e) in
      let f00, f01 =
        if dep f0 then (m.n_lo.(f0), m.n_hi.(f0)) else (f0, f0)
      in
      let f10, f11 =
        if dep f1 then (m.n_lo.(f1), m.n_hi.(f1)) else (f1, f1)
      in
      (* New cofactor nodes first (they may share the old children, so
         build before dropping edges). *)
      let new_lo = reorder_mk m pr protect x f00 f10 in
      let new_hi = reorder_mk m pr protect x f01 f11 in
      incr_ new_lo;
      incr_ new_hi;
      (* Remove under the old key while the columns still hold it. *)
      sub_remove m xt e;
      decr f0;
      decr f1;
      m.n_var.(e) <- y;
      m.n_lo.(e) <- new_lo;
      m.n_hi.(e) <- new_hi;
      sub_insert m yt e)
    moving;
  reorder_reap m pr protect queue;
  m.lvl2var.(l) <- y;
  m.lvl2var.(l + 1) <- x;
  m.var2lvl.(x) <- l + 1;
  m.var2lvl.(y) <- l

(* Prologue shared by every reordering entry point: build the in-table
   parent counts and the protection set (parentless tops + registered
   roots), run the body with [in_reorder] set, and on any exit flush
   the caches and account the stats. *)
let with_reorder m body =
  if m.in_reorder then invalid_arg "Bdd.reorder: reentrant reorder";
  fault_tick m Reorder;
  let t0 = now_monotonic () in
  let before = m.live in
  m.in_reorder <- true;
  Fun.protect
    ~finally:(fun () ->
      m.in_reorder <- false;
      clear_caches m;
      m.reorders <- m.reorders + 1;
      m.reorder_ms <- m.reorder_ms +. ((now_monotonic () -. t0) *. 1000.0);
      m.reorder_saved <- m.reorder_saved + (before - m.live))
    (fun () ->
      let pr = ref (Array.make m.n_cap 0) in
      let protect = Bytes.make m.n_cap '\000' in
      iter_nodes m (fun e ->
          let lo = m.n_lo.(e) and hi = m.n_hi.(e) in
          if lo >= 2 then !pr.(lo) <- !pr.(lo) + 1;
          if hi >= 2 then !pr.(hi) <- !pr.(hi) + 1);
      iter_nodes m (fun e ->
          if !pr.(e) = 0 then Bytes.set protect e '\001');
      Hashtbl.iter
        (fun _ provider ->
          List.iter
            (fun f -> if f >= 2 then Bytes.set protect f '\001')
            (provider ()))
        m.roots;
      body pr protect)

(* Poll attached limits between block exchanges so a deadline or node
   budget can abort a sift at a swap boundary. *)
let reorder_poll m =
  match m.limits with Some l -> limits_check_now m l | None -> ()

(* Bubble partners adjacent (top-down), so sifting can treat each
   current/next pair as one block. *)
let normalize_pairs m pr protect =
  let l = ref 0 in
  while !l < m.nvars - 1 do
    let v = m.lvl2var.(!l) in
    let p = m.pair_with.(v) in
    if p >= 0 then begin
      let pl = m.var2lvl.(p) in
      for k = pl - 1 downto !l + 1 do
        swap_levels m pr protect k
      done;
      l := !l + 2
    end
    else incr l
  done

(* The blocks (pairs + singletons) in level order. *)
let build_blocks m =
  let acc = ref [] and l = ref 0 in
  while !l < m.nvars do
    let v = m.lvl2var.(!l) in
    let p = m.pair_with.(v) in
    if p >= 0 && m.var2lvl.(p) = !l + 1 then begin
      acc := [| v; p |] :: !acc;
      l := !l + 2
    end
    else begin
      acc := [| v |] :: !acc;
      incr l
    end
  done;
  Array.of_list (List.rev !acc)

(* Exchange adjacent blocks i and i+1 (a block exchange of widths p,q
   is p*q adjacent-level swaps). *)
let exchange_blocks m pr protect blocks i =
  let bi = blocks.(i) and bj = blocks.(i + 1) in
  let p = Array.length bi in
  let base = m.var2lvl.(bi.(0)) in
  Array.iteri
    (fun k _ ->
      let cur = base + p + k in
      for l = cur - 1 downto base + k do
        swap_levels m pr protect l
      done)
    bj;
  blocks.(i) <- bj;
  blocks.(i + 1) <- bi;
  reorder_poll m

(* Rudell sifting over blocks: move each block (largest first) to both
   ends of the order, tracking total live nodes, and park it at the
   best position seen.  A scan direction is abandoned when the table
   grows past maxgrowth (1.2x), except while retreating through
   already-visited territory. *)
let do_sift m pr protect =
  if m.nvars > 1 then begin
    normalize_pairs m pr protect;
    let blocks = build_blocks m in
    let nb = Array.length blocks in
    let bsize b =
      Array.fold_left (fun acc v -> acc + m.subs.(v).s_count) 0 b
    in
    let order =
      List.stable_sort
        (fun (sa, ia, _) (sb, ib, _) ->
          if sa <> sb then Stdlib.compare sb sa else Stdlib.compare ia ib)
        (List.mapi (fun i b -> (bsize b, i, b)) (Array.to_list blocks))
      |> List.map (fun (_, _, b) -> b)
    in
    let index_of b =
      let r = ref (-1) in
      Array.iteri (fun i b' -> if b' == b then r := i) blocks;
      !r
    in
    List.iter
      (fun b ->
        let i0 = index_of b in
        let start_live = m.live in
        let limit = start_live + (start_live / 5) + 64 in
        let best = ref m.live and bestpos = ref i0 and pos = ref i0 in
        let down () =
          while !pos < nb - 1 && (!pos < i0 || m.live <= limit) do
            exchange_blocks m pr protect blocks !pos;
            incr pos;
            if m.live < !best then begin
              best := m.live;
              bestpos := !pos
            end
          done
        in
        let up () =
          while !pos > 0 && (!pos > i0 || m.live <= limit) do
            exchange_blocks m pr protect blocks (!pos - 1);
            decr pos;
            if m.live < !best then begin
              best := m.live;
              bestpos := !pos
            end
          done
        in
        if i0 >= nb / 2 then begin
          down ();
          up ()
        end
        else begin
          up ();
          down ()
        end;
        while !pos > !bestpos do
          exchange_blocks m pr protect blocks (!pos - 1);
          decr pos
        done;
        while !pos < !bestpos do
          exchange_blocks m pr protect blocks !pos;
          incr pos
        done)
      order
  end

let reorder m = with_reorder m (do_sift m)

module Reorder = struct
  let nvars m = m.nvars
  let level_of_var m v =
    if v < 0 || v >= m.nvars then invalid_arg "Bdd.Reorder.level_of_var";
    m.var2lvl.(v)
  let var_at_level m l =
    if l < 0 || l >= m.nvars then invalid_arg "Bdd.Reorder.var_at_level";
    m.lvl2var.(l)
  let order m = Array.sub m.lvl2var 0 m.nvars

  let swap m l =
    if l < 0 || l >= m.nvars - 1 then invalid_arg "Bdd.Reorder.swap: bad level";
    with_reorder m (fun pr protect -> swap_levels m pr protect l)

  let set_order m ord =
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
    if m.live = 0 then begin
      (* Empty manager: install directly. *)
      Array.iteri
        (fun l v ->
          m.lvl2var.(l) <- v;
          m.var2lvl.(v) <- l)
        ord;
      clear_caches m
    end
    else
      with_reorder m (fun pr protect ->
          (* Selection by bubbling: settle each target level in turn. *)
          for target = 0 to n - 1 do
            let v = ord.(target) in
            for l = m.var2lvl.(v) - 1 downto target do
              swap_levels m pr protect l
            done;
            reorder_poll m
          done)

  let set_pairs m pairs =
    List.iter
      (fun (a, b) ->
        if a < 0 || b < 0 || a = b then
          invalid_arg "Bdd.Reorder.set_pairs: bad pair";
        ensure_var m (max a b))
      pairs;
    Array.fill m.pair_with 0 (Array.length m.pair_with) (-1);
    List.iter
      (fun (a, b) ->
        if m.pair_with.(a) >= 0 || m.pair_with.(b) >= 0 then
          invalid_arg "Bdd.Reorder.set_pairs: variable in two pairs";
        m.pair_with.(a) <- b;
        m.pair_with.(b) <- a)
      pairs

  let pairs m =
    let acc = ref [] in
    for v = m.nvars - 1 downto 0 do
      let p = m.pair_with.(v) in
      if p > v then acc := (v, p) :: !acc
    done;
    !acc

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
   probes / [gc] / [with_reorder], [fault_step_tick] in [Limits.step]);
   this module only arms and disarms them. *)

module Fault = struct
  type site = fault_site = Mk | Cache_probe | Gc | Step | Reorder

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
    | Reorder -> "reorder"

  let site_of_string = function
    | "mk" -> Some Mk
    | "probe" -> Some Cache_probe
    | "gc" -> Some Gc
    | "step" -> Some Step
    | "reorder" -> Some Reorder
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
   structure travels — columns, free list, order permutation, sift
   pairs, zombies, and the flattened root handles.  Unique subtables
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
  let magic = "BDDSNAP1"

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
    for v = 0 to m.nvars - 1 do
      put m.pair_with.(v)
    done;
    put (List.length m.zombies);
    List.iter put m.zombies;
    (* Root handles, flattened from the registered providers and
       deduplicated with a stable order: providers are closures and
       cannot travel, so the restored manager gets one static root
       pinning exactly the nodes these providers reach today. *)
    let root_handles =
      Hashtbl.fold (fun _ provider acc -> provider () @ acc) m.roots []
      |> List.sort_uniq Stdlib.compare
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
    let m = create ~unique_size:1024 () in
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
    for v = 0 to nvars - 1 do
      let p = get () in
      if p < -1 || p >= nvars then corrupt "bad sift pair %d for var %d" p v;
      m.pair_with.(v) <- p
    done;
    let nzombies = get () in
    if nzombies < 0 || nzombies > n_next then
      corrupt "bad zombie count %d" nzombies;
    let zombie = Bytes.make n_next '\000' in
    let zombies = List.init nzombies (fun _ -> get ()) in
    List.iter
      (fun z ->
        if z < 2 || z >= n_next || m.n_var.(z) < 0 then
          corrupt "zombie %d is not a readable slot" z;
        Bytes.set zombie z '\001')
      zombies;
    m.zombies <- zombies;
    let nroots = get () in
    if nroots < 0 || nroots > n_next then corrupt "bad root count %d" nroots;
    let root_handles = List.init nroots (fun _ -> get ()) in
    (* Rebuild the unique subtables from the columns, re-proving the
       canonical invariants for every table entry: children in range
       and not on the free list, lo <> hi, child levels strictly
       deeper, and no duplicate (var, lo, hi) triple.  Zombie slots
       stay out of the tables (that is what makes them zombies) but
       their children must still be readable. *)
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
        if Bytes.get zombie e = '\000' then begin
          if lo = hi then corrupt "node %d is redundant (lo = hi)" e;
          let deeper c =
            c >= 2 && m.var2lvl.(m.n_var.(c)) <= m.var2lvl.(v)
          in
          if deeper lo || deeper hi then
            corrupt "node %d: child above its level" e;
          let s = m.subs.(v) in
          if sub_find m s lo hi <> -1 then
            corrupt "duplicate node (%d, %d, %d)" v lo hi;
          sub_insert m s e;
          m.live <- m.live + 1
        end
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
    if !nfree + m.live + nzombies <> n_next - 2 then
      corrupt "slot accounting: %d free + %d live + %d zombies <> %d"
        !nfree m.live nzombies (n_next - 2);
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
