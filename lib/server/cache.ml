(* Warm manager pool.  See the interface for the design; the
   implementation is a mutex-guarded hashtable whose idle entries are
   evicted in one order: once-used first, then least GreedyDual
   credit, then least recently released; a short list remembers the
   keys of once-used entries evicted lately. *)

type entry = {
  key : string;
  lock : Mutex.t;
  mutable compiled : Smv.Compile.compiled option;
  mutable memo : Counterex.Explain.memo option;
  mutable busy : int;
  mutable uses : int;
  mutable last_used : float;
  mutable clamped : bool;
  mutable cost : int;
  mutable credit : int;
  mutable kept : int;
}

type t = {
  capacity : int;
  table : (string, entry) Hashtbl.t;
  mutable ghosts : string list;
      (* keys of the last [capacity] once-used entries evicted, most
         recent first *)
  mutable floor : int;
  collections : int Atomic.t;
  collected_nodes : int Atomic.t;
  pool_lock : Mutex.t;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  { capacity; table = Hashtbl.create 16; ghosts = []; floor = 0;
    collections = Atomic.make 0; collected_nodes = Atomic.make 0;
    pool_lock = Mutex.create () }

let digest ~source = Digest.to_hex (Digest.string source)

let with_lock mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let fresh_entry ~key ~compiled ~uses =
  {
    key;
    lock = Mutex.create ();
    compiled;
    memo = None;
    busy = 0;
    uses;
    last_used = Bdd.now_monotonic ();
    clamped = false;
    cost = 0;
    credit = 0;
    kept = 0;
  }

(* The one victim order of every eviction path: entries used at most
   once first, then the least credit, then the least recently
   released. *)
let victim_order a b =
  match Bool.compare (a.uses > 1) (b.uses > 1) with
  | 0 -> (
    match Int.compare a.credit b.credit with
    | 0 -> Float.compare a.last_used b.last_used
    | c -> c)
  | c -> c

(* Idle entries with at most [max_uses] uses, in victim order. *)
let victims ?(max_uses = max_int) t =
  Hashtbl.fold
    (fun _ e acc -> if e.busy = 0 && e.uses <= max_uses then e :: acc else acc)
    t.table []
  |> List.sort victim_order

(* Under the pool lock: drop [e], remembering its key if it was used
   only once, else raising the floor to its credit (the credits of the
   entries that stay age by that much).  Evicted managers and memos
   are reclaimed by the GC — nothing outside the entry references them
   once it leaves the table. *)
let evict t e =
  Hashtbl.remove t.table e.key;
  if e.uses <= 1 then
    t.ghosts <-
      List.filteri
        (fun i _ -> i < t.capacity)
        (e.key :: List.filter (( <> ) e.key) t.ghosts)
  else t.floor <- max t.floor e.credit

(* Under the pool lock: evict idle entries with at most [max_uses] uses,
   in victim order, until the pool is back at capacity or none is
   left. *)
let evict_over_capacity ?max_uses t =
  let excess = Hashtbl.length t.table - t.capacity in
  if excess > 0 then
    List.iteri (fun i e -> if i < excess then evict t e) (victims ?max_uses t)

let acquire t ~key =
  with_lock t.pool_lock @@ fun () ->
  let entry, warm =
    match Hashtbl.find_opt t.table key with
    | Some e -> (e, e.compiled <> None)
    | None ->
      (* A key evicted after one use that comes back is asked for
         again: it enters as a reused entry, so settling on release
         makes room for it. *)
      let uses = if List.mem key t.ghosts then 1 else 0 in
      t.ghosts <- List.filter (( <> ) key) t.ghosts;
      let e = fresh_entry ~key ~compiled:None ~uses in
      Hashtbl.replace t.table key e;
      (e, false)
  in
  (* Mark busy *before* evicting: a fresh insert at capacity must evict
     some idle entry, never the one being handed out.  Only once-used
     entries make room here: a stream of one-off sources must not push
     out the models that are asked for again. *)
  entry.busy <- entry.busy + 1;
  entry.uses <- entry.uses + 1;
  evict_over_capacity ~max_uses:1 t;
  (entry, warm)

let release t entry =
  with_lock t.pool_lock @@ fun () ->
  entry.busy <- max 0 (entry.busy - 1);
  entry.last_used <- Bdd.now_monotonic ();
  entry.credit <- t.floor + entry.cost;
  evict_over_capacity t

let memo entry =
  match (entry.memo, entry.compiled) with
  | Some mm, _ -> mm
  | None, Some c ->
    let mm = Counterex.Explain.memo c.Smv.Compile.model in
    entry.memo <- Some mm;
    mm
  | None, None -> invalid_arg "Cache.memo: the entry holds no compiled model"

(* What evicting a model throws away, given the nodes the request that
   built its entry allocated: those, plus the part of a compile that
   allocates none (parsing, building the model), which weighs about as
   much as 1,024 nodes: a cold request on serve-mix's models takes
   about 1 ms plus 0.8 us per node allocated.  Without it the costliest
   model's credit outlived it by so much that a replaced version held
   its slot for hundreds of requests (E14's churn7-shift). *)
let rebuild_cost nodes = 1024 + nodes

let collect t entry =
  match entry.compiled with
  | None -> 0
  | Some c ->
    let man = c.Smv.Compile.model.Kripke.man in
    let freed =
      Bdd.with_root man
        (fun () ->
          Option.fold ~none:[] ~some:Counterex.Explain.roots entry.memo
          @ c.Smv.Compile.clusters)
        (fun () -> Bdd.gc man)
    in
    entry.kept <- Bdd.live_nodes man;
    Atomic.incr t.collections;
    ignore (Atomic.fetch_and_add t.collected_nodes freed);
    freed

(* Collect once a pooled manager holds more than twice what its last
   collection left, and at least this many live nodes. *)
let collect_min_live = 4096

let after_request t entry =
  match entry.compiled with
  | None -> ()
  | Some c ->
    let man = c.Smv.Compile.model.Kripke.man in
    if entry.cost = 0 then entry.cost <- rebuild_cost (Bdd.count_nodes man);
    let live = Bdd.live_nodes man in
    if entry.uses > 1 && live >= collect_min_live && live > 2 * entry.kept
    then ignore (collect t entry)

let size t = with_lock t.pool_lock @@ fun () -> Hashtbl.length t.table
let capacity t = t.capacity
let credit_floor t = with_lock t.pool_lock @@ fun () -> t.floor

let collections t =
  (Atomic.get t.collections, Atomic.get t.collected_nodes)

(* ------------------------------------------------------------------ *)
(* Memory-pressure hooks (the daemon's watchdog) and introspection
   (the Status op).

   Node counts are plain int-field reads on the entries' managers:
   reading one while a worker domain mutates the manager is benign
   (ints don't tear in OCaml) and the numbers are pressure heuristics,
   not accounting.  Everything that *mutates* a manager below touches
   only idle entries while holding the pool lock — an entry with
   [busy = 0] has no holder, and [acquire] (the only way to gain one)
   also takes the pool lock, so nothing can start using the manager
   under our feet. *)

let entry_live e =
  match e.compiled with
  | Some c -> Bdd.live_nodes c.Smv.Compile.model.Kripke.man
  | None -> 0

let entry_faults e =
  match e.compiled with
  | Some c -> Bdd.Fault.fired c.Smv.Compile.model.Kripke.man
  | None -> 0

let live_nodes t =
  with_lock t.pool_lock @@ fun () ->
  Hashtbl.fold (fun _ e acc -> acc + entry_live e) t.table 0

let is_warm t ~key =
  with_lock t.pool_lock @@ fun () ->
  match Hashtbl.find_opt t.table key with
  | Some e -> e.compiled <> None
  | None -> false

let evict_idle_until t ~target =
  with_lock t.pool_lock @@ fun () ->
  let total () =
    Hashtbl.fold (fun _ e acc -> acc + entry_live e) t.table 0
  in
  let evicted = ref 0 in
  List.iter
    (fun e ->
      if total () > target && entry_live e > 0 then begin
        evict t e;
        incr evicted
      end)
    (victims t);
  !evicted

let clamp_idle t ~limit =
  with_lock t.pool_lock @@ fun () ->
  Hashtbl.fold
    (fun _ e acc ->
      match e.compiled with
      | Some c when e.busy = 0 && not e.clamped ->
        let man = c.Smv.Compile.model.Kripke.man in
        Bdd.set_cache_limit man (Some limit);
        (* Under pressure the memo's sets are what there is to reclaim:
           it goes before the gc. *)
        Option.iter Counterex.Explain.clear e.memo;
        ignore (Bdd.gc man);
        e.kept <- Bdd.live_nodes man;
        e.clamped <- true;
        acc + 1
      | _ -> acc)
    t.table 0

let unclamp_idle t =
  with_lock t.pool_lock @@ fun () ->
  Hashtbl.fold
    (fun _ e acc ->
      match e.compiled with
      | Some c when e.busy = 0 && e.clamped ->
        Bdd.set_cache_limit c.Smv.Compile.model.Kripke.man None;
        e.clamped <- false;
        acc + 1
      | _ -> acc)
    t.table 0

(* ------------------------------------------------------------------ *)
(* Warm-state persistence hooks (Persist). *)

let with_idle t f =
  with_lock t.pool_lock @@ fun () ->
  Hashtbl.fold
    (fun _ e acc ->
      match e.compiled with
      | Some c when e.busy = 0 ->
        f ~key:e.key ~uses:e.uses c;
        acc + 1
      | _ -> acc)
    t.table 0

let seed t ~key ~uses ~compiled =
  with_lock t.pool_lock @@ fun () ->
  if Hashtbl.mem t.table key then false
  else begin
    let e = fresh_entry ~key ~compiled:(Some compiled) ~uses in
    (* A rehydrated manager's node count is its whole served history;
       the rehydration allocated its live nodes. *)
    e.cost <- rebuild_cost (Bdd.live_nodes compiled.Smv.Compile.model.Kripke.man);
    e.credit <- t.floor + e.cost;
    Hashtbl.replace t.table key e;
    evict_over_capacity t;
    true
  end

type info = {
  i_key : string;
  i_busy : int;
  i_uses : int;
  i_warm : bool;
  i_live : int;
  i_faults : int;
  i_clamped : bool;
  i_memo_sets : int;
  i_memo_layers : int;
  i_cost : int;
  i_credit : int;
}

let snapshot t =
  with_lock t.pool_lock @@ fun () ->
  Hashtbl.fold
    (fun _ e acc ->
      let i_memo_sets, i_memo_layers =
        Option.fold ~none:(0, 0) ~some:Counterex.Explain.size e.memo
      in
      {
        i_key = e.key;
        i_busy = e.busy;
        i_uses = e.uses;
        i_warm = e.compiled <> None;
        i_live = entry_live e;
        i_faults = entry_faults e;
        i_clamped = e.clamped;
        i_memo_sets;
        i_memo_layers;
        i_cost = e.cost;
        i_credit = e.credit;
      }
      :: acc)
    t.table []
  |> List.sort (fun a b -> compare a.i_key b.i_key)
