(* Warm manager pool.  See the interface for the design; the
   implementation is a mutex-guarded hashtable with LRU eviction of
   idle entries. *)

type entry = {
  key : string;
  lock : Mutex.t;
  mutable compiled : Smv.Compile.compiled option;
  mutable busy : int;
  mutable uses : int;
  mutable last_used : float;
  mutable clamped : bool;
}

type t = {
  capacity : int;
  table : (string, entry) Hashtbl.t;
  pool_lock : Mutex.t;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Cache.create: capacity must be >= 1";
  { capacity; table = Hashtbl.create 16; pool_lock = Mutex.create () }

let digest ~source = Digest.to_hex (Digest.string source)

let with_lock mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* Under the pool lock: drop least-recently-used idle entries until we
   are back at capacity.  Evicted managers are reclaimed by the GC —
   nothing outside the entry references them once it leaves the
   table. *)
let evict_over_capacity t =
  let excess = Hashtbl.length t.table - t.capacity in
  if excess > 0 then begin
    let idle =
      Hashtbl.fold
        (fun _ e acc -> if e.busy = 0 then e :: acc else acc)
        t.table []
      |> List.sort (fun a b -> Float.compare a.last_used b.last_used)
    in
    List.iteri
      (fun i e -> if i < excess then Hashtbl.remove t.table e.key)
      idle
  end

let acquire t ~key =
  with_lock t.pool_lock @@ fun () ->
  let entry, warm =
    match Hashtbl.find_opt t.table key with
    | Some e -> (e, e.compiled <> None)
    | None ->
      let e =
        {
          key;
          lock = Mutex.create ();
          compiled = None;
          busy = 0;
          uses = 0;
          last_used = Bdd.now_monotonic ();
          clamped = false;
        }
      in
      Hashtbl.replace t.table key e;
      (e, false)
  in
  (* Mark busy *before* evicting: a fresh insert at capacity must evict
     some idle entry, never the one being handed out. *)
  entry.busy <- entry.busy + 1;
  entry.uses <- entry.uses + 1;
  evict_over_capacity t;
  (entry, warm)

let release t entry =
  with_lock t.pool_lock @@ fun () ->
  entry.busy <- max 0 (entry.busy - 1);
  entry.last_used <- Bdd.now_monotonic ()

let size t = with_lock t.pool_lock @@ fun () -> Hashtbl.length t.table
let capacity t = t.capacity

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
  let idle =
    Hashtbl.fold
      (fun _ e acc -> if e.busy = 0 then e :: acc else acc)
      t.table []
    |> List.sort (fun a b -> Float.compare a.last_used b.last_used)
  in
  let total () =
    Hashtbl.fold (fun _ e acc -> acc + entry_live e) t.table 0
  in
  let evicted = ref 0 in
  List.iter
    (fun e ->
      if total () > target && entry_live e > 0 then begin
        Hashtbl.remove t.table e.key;
        incr evicted
      end)
    idle;
  !evicted

let clamp_idle t ~limit =
  with_lock t.pool_lock @@ fun () ->
  Hashtbl.fold
    (fun _ e acc ->
      match e.compiled with
      | Some c when e.busy = 0 && not e.clamped ->
        let man = c.Smv.Compile.model.Kripke.man in
        Bdd.set_cache_limit man (Some limit);
        ignore (Bdd.gc man);
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

let seed t ~key ~compiled =
  with_lock t.pool_lock @@ fun () ->
  if Hashtbl.mem t.table key then false
  else begin
    Hashtbl.replace t.table key
      {
        key;
        lock = Mutex.create ();
        compiled = Some compiled;
        busy = 0;
        uses = 0;
        last_used = Bdd.now_monotonic ();
        clamped = false;
      };
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
}

let snapshot t =
  with_lock t.pool_lock @@ fun () ->
  Hashtbl.fold
    (fun _ e acc ->
      {
        i_key = e.key;
        i_busy = e.busy;
        i_uses = e.uses;
        i_warm = e.compiled <> None;
        i_live = entry_live e;
        i_faults = entry_faults e;
        i_clamped = e.clamped;
      }
      :: acc)
    t.table []
  |> List.sort (fun a b -> compare a.i_key b.i_key)
