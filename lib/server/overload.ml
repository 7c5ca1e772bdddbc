(* Overload protection state for the check server: admission counters,
   a rolling window of check durations (the retry-after hint), and the
   memory watchdog's degradation ladder.  See the interface for the
   design contract. *)

type shed_reason = Queue_full | Inflight_cap | Memory_pressure

let reason_string = function
  | Queue_full -> "queue"
  | Inflight_cap -> "inflight"
  | Memory_pressure -> "memory"

type stats = {
  uptime_s : float;
  inflight : int;
  level : int;
  shed_queue : int;
  shed_inflight : int;
  shed_cold : int;
  evictions : int;
  clamps : int;
  unclamps : int;
  transitions : int;
  checks : int;
  avg_check_s : float option;
}

let window = 32

type t = {
  lock : Mutex.t;
  mem_high_water : int option;
  log : string -> unit;
  started : float;
  durations : float array;  (* ring of the last [window] check times *)
  mutable dcount : int;
  mutable dnext : int;
  mutable dsum : float;
  mutable inflight_n : int;
  mutable level_n : int;  (* 0 normal … 3 refusing cold admissions *)
  mutable shed_queue_n : int;
  mutable shed_inflight_n : int;
  mutable shed_cold_n : int;
  mutable evictions_n : int;
  mutable clamps_n : int;
  mutable unclamps_n : int;
  mutable transitions_n : int;
  mutable checks_n : int;
}

let with_lock mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let create ?mem_high_water
    ?(log = fun s -> Format.eprintf "smv_check --serve: %s@." s) () =
  (match mem_high_water with
  | Some n when n < 1 ->
    invalid_arg "Overload.create: mem_high_water must be >= 1"
  | Some _ | None -> ());
  {
    lock = Mutex.create ();
    mem_high_water;
    log;
    started = Bdd.now_monotonic ();
    durations = Array.make window 0.;
    dcount = 0;
    dnext = 0;
    dsum = 0.;
    inflight_n = 0;
    level_n = 0;
    shed_queue_n = 0;
    shed_inflight_n = 0;
    shed_cold_n = 0;
    evictions_n = 0;
    clamps_n = 0;
    unclamps_n = 0;
    transitions_n = 0;
    checks_n = 0;
  }

let admitted t =
  with_lock t.lock @@ fun () -> t.inflight_n <- t.inflight_n + 1

let retract t =
  with_lock t.lock @@ fun () -> t.inflight_n <- max 0 (t.inflight_n - 1)

let finished t dur =
  with_lock t.lock @@ fun () ->
  t.inflight_n <- max 0 (t.inflight_n - 1);
  t.checks_n <- t.checks_n + 1;
  (* Ring update: subtract the overwritten slot so [dsum] tracks the
     window, not the whole history. *)
  if t.dcount = window then t.dsum <- t.dsum -. t.durations.(t.dnext)
  else t.dcount <- t.dcount + 1;
  t.durations.(t.dnext) <- dur;
  t.dsum <- t.dsum +. dur;
  t.dnext <- (t.dnext + 1) mod window

let inflight t = with_lock t.lock @@ fun () -> t.inflight_n

let avg_check_s t =
  with_lock t.lock @@ fun () ->
  if t.dcount = 0 then None else Some (t.dsum /. float_of_int t.dcount)

(* A queue of depth d in front of w workers clears in roughly
   ceil((d+1)/w) mean check times; that is when a retried request
   would next find room.  No history yet -> a 50 ms guess. *)
let retry_after_ms t ~queue_depth ~workers =
  let base = Option.value (avg_check_s t) ~default:0.05 in
  let slots = float_of_int (max 0 queue_depth + 1) in
  let w = float_of_int (max 1 workers) in
  Float.max 1. (Float.round (base *. 1000. *. ceil (slots /. w)))

let shed t reason =
  with_lock t.lock @@ fun () ->
  match reason with
  | Queue_full -> t.shed_queue_n <- t.shed_queue_n + 1
  | Inflight_cap -> t.shed_inflight_n <- t.shed_inflight_n + 1
  | Memory_pressure -> t.shed_cold_n <- t.shed_cold_n + 1

let admit_cold t = with_lock t.lock @@ fun () -> t.level_n < 3

let level t = with_lock t.lock @@ fun () -> t.level_n

let clamp_limit = 8192

let level_name = function
  | 0 -> "normal"
  | 1 -> "evicting idle models"
  | 2 -> "op-caches clamped"
  | _ -> "refusing cold admissions"

let set_level t ~live ~hw level' =
  let prev = with_lock t.lock (fun () -> t.level_n) in
  if level' <> prev then begin
    with_lock t.lock (fun () ->
        t.level_n <- level';
        t.transitions_n <- t.transitions_n + 1);
    t.log
      (Printf.sprintf
         "memory watchdog: %d live nodes (high water %d): level %d -> %d (%s)"
         live hw prev level' (level_name level'))
  end

(* One watchdog tick.  Rung order under pressure: evict idle entries
   in the pool's victim order, then clamp + gc idle op-caches (their
   memos cleared first), and only if the pool is
   still over water refuse cold-model admissions.  When pressure
   clears the clamps are undone and the level drops back to 0.  The
   caller guarantees single-threaded ticks (the accept loop or the
   stdio timer thread); this function only ever blocks other threads
   for the duration of one Cache operation. *)
let watchdog t cache =
  match t.mem_high_water with
  | None -> ()
  | Some hw ->
    let live = Cache.live_nodes cache in
    if live <= hw then begin
      if with_lock t.lock (fun () -> t.level_n >= 2) then begin
        let n = Cache.unclamp_idle cache in
        with_lock t.lock (fun () -> t.unclamps_n <- t.unclamps_n + n)
      end;
      set_level t ~live ~hw 0
    end
    else begin
      let evicted = Cache.evict_idle_until cache ~target:hw in
      if evicted > 0 then begin
        with_lock t.lock (fun () ->
            t.evictions_n <- t.evictions_n + evicted);
        (* The table no longer references the evicted managers; a major
           collection returns their memory now, while we are the ones
           under pressure. *)
        Gc.full_major ()
      end;
      let live1 = Cache.live_nodes cache in
      let clamped =
        if live1 > hw then Cache.clamp_idle cache ~limit:clamp_limit else 0
      in
      if clamped > 0 then
        with_lock t.lock (fun () -> t.clamps_n <- t.clamps_n + clamped);
      let live2 = if clamped > 0 then Cache.live_nodes cache else live1 in
      let level' =
        if live2 > hw then 3
        else if clamped > 0 || with_lock t.lock (fun () -> t.level_n >= 2)
        then 2
        else 1
      in
      set_level t ~live:live2 ~hw level'
    end

let stats t =
  with_lock t.lock @@ fun () ->
  {
    uptime_s = Bdd.now_monotonic () -. t.started;
    inflight = t.inflight_n;
    level = t.level_n;
    shed_queue = t.shed_queue_n;
    shed_inflight = t.shed_inflight_n;
    shed_cold = t.shed_cold_n;
    evictions = t.evictions_n;
    clamps = t.clamps_n;
    unclamps = t.unclamps_n;
    transitions = t.transitions_n;
    checks = t.checks_n;
    avg_check_s =
      (if t.dcount = 0 then None else Some (t.dsum /. float_of_int t.dcount));
  }
