(* The serve loop.  Structure:

     main thread          reader threads           pool workers
     ------------         --------------           ------------
     bind + accept   -->  one per connection  -->  one task per check
     (select tick)        Frame.read loop          Engine.run
     watchdog + reap      parse + dispatch         write reply frame

   Stdio mode is the same picture minus accept: the main thread is the
   single reader (and a timer thread ticks the watchdog when a
   high-water mark is set).  Replies are written by whoever produced
   them (reader for ping/cancel/status/shed, worker for checks) under
   a per-connection write mutex, so frames never interleave.

   Admission discipline: a check is either queued or shed {e from the
   reader thread} — the reader never parks waiting for room.  Shed
   paths (duplicate id, in-flight cap, cold model under memory
   pressure, full pending queue) each answer immediately with a
   structured reply, so the one-reply-per-frame contract holds at any
   load.

   Drain discipline: SIGINT / SIGTERM / the shutdown op set one [stop]
   atomic.  Readers wake (signal-interrupted reads return through
   [Frame.read]'s [should_stop]; socket readers are woken by a
   [shutdown SHUTDOWN_RECEIVE] from the main loop), stop reading,
   await their in-flight futures so every accepted request still gets
   its reply, and exit.  Nothing sets the per-request cancel flags on
   drain — that path is reserved for the cancel op and for client
   disconnects. *)

type config = {
  socket : string option;
  jobs : int;
  capacity : int;
  debug : bool;
  max_pending : int option;
  max_inflight : int option;
  default_timeout : float option;
  default_node_limit : int option;
  max_timeout : float option;
  mem_high_water : int option;
  state_dir : string option;
  crash_after : int option;
  restarts : int;
}

(* The [child-crash:K] fault site: after the [K]-th check reply has
   been written, the process SIGKILLs itself — no handlers, no
   cleanup, exactly the crash the supervisor must absorb.  One armed
   countdown per process ([min_int] = disarmed); [serve] arms it from
   the config. *)
let crash_countdown = Atomic.make min_int

let crash_tick () =
  if Atomic.get crash_countdown <> min_int then begin
    let before = Atomic.fetch_and_add crash_countdown (-1) in
    if before = 1 then Unix.kill (Unix.getpid ()) Sys.sigkill
  end

(* One client connection: its fds, write lock, and the cancellation
   flags of its in-flight checks (ids are client-chosen and scoped to
   the connection). *)
type conn = {
  fd_in : Unix.file_descr;
  fd_out : Unix.file_descr;
  write_lock : Mutex.t;
  inflight_lock : Mutex.t;
  inflight : (string, bool Atomic.t) Hashtbl.t;
  mutable futures : unit Parallel.Pool.future list;
}

let with_lock mu f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* Best-effort reply: a client that vanished mid-check loses its reply
   and nothing else. *)
let send conn payload =
  with_lock conn.write_lock @@ fun () ->
  match Frame.write conn.fd_out payload with
  | () -> ()
  | exception Frame.Closed -> ()

(* Server-side budget defaults: a request that names no timeout /
   node-limit gets the server's, and whatever timeout wins is clamped
   to the ceiling.  A request budget below the ceiling is honoured
   as-is — the ceiling caps, it never extends. *)
let apply_defaults cfg (o : Engine.options) =
  let timeout =
    let requested =
      match o.Engine.timeout with
      | None -> cfg.default_timeout
      | some -> some
    in
    match (requested, cfg.max_timeout) with
    | Some t, Some ceiling -> Some (Float.min t ceiling)
    | None, Some ceiling -> Some ceiling
    | t, None -> t
  in
  let node_limit =
    match o.Engine.node_limit with
    | None -> cfg.default_node_limit
    | some -> some
  in
  { o with Engine.timeout; node_limit }

(* ------------------------------------------------------------------ *)
(* Request processing (runs on a pool worker) *)

(* The warm-pool key of a check request, with the two compile flags it
   digests: the one derivation both [process] and the cold-model
   admission check use. *)
let pool_key ~model (options : Engine.options) =
  let partitioned = options.Engine.partitioned in
  let static_order = options.Engine.reorder = `Static in
  (Cache.digest ~source:model ~partitioned ~static_order, partitioned,
   static_order)

(* Compile into the (locked) cache entry; [Engine.compile] roots the
   clusters for the entry's whole life. *)
let build_entry (entry : Cache.entry) ~partitioned ~static_order source =
  match entry.Cache.compiled with
  | Some c -> Ok (c, true)
  | None ->
    Engine.compile ~source:"model" (fun () ->
        Smv.load_string ~partitioned ~static_order source)
    |> Result.map (fun compiled ->
           entry.Cache.compiled <- Some compiled;
           (compiled, false))

(* Check one request on its (locked) warm entry: the shared driver on
   one worker, wrapped in the request-scoped work around it.  Returns
   the reply payload. *)
let process cache ~id ~model ~specs ~(options : Engine.options) ~cancel =
  let t0 = Bdd.now_monotonic () in
  let key, partitioned, static_order = pool_key ~model options in
  let entry, _ = Cache.acquire cache ~key in
  Fun.protect ~finally:(fun () -> Cache.release cache entry) @@ fun () ->
  with_lock entry.Cache.lock @@ fun () ->
  match build_entry entry ~partitioned ~static_order model with
  | Error msg -> Protocol.error_reply ~id msg
  | Ok (compiled, warm) -> (
    let m = compiled.Smv.Compile.model in
    let man = m.Kripke.man in
    (* Request-scoped manager state: a previous request must leak
       nothing into this one.  The engine already disarms its own
       faults on every exit path; disarming again here is the
       belt-and-braces for a worker that died mid-request. *)
    Bdd.Fault.disarm man;
    let fired_before = Bdd.Fault.fired man in
    let stats_before = Bdd.stats man in
    Bdd.reset_peak man;
    (* Warm the reachability memo (and observe whether it already
       was): this is the fixpoint a spec-only change gets for free on
       the next request.  Budgeted — a breach leaves the memo unset and
       the specs still run. *)
    let warm_reach () =
      let reach_reused = Kripke.reach_memo m <> None in
      let limits = Engine.mk_limits options ~cancel in
      match
        Bdd.Limits.with_attached man limits (fun () ->
            Kripke.reachable ~limits m)
      with
      | reach -> (reach_reused, Some (Kripke.count_states m reach))
      | exception Bdd.Limits.Exhausted _ -> (reach_reused, None)
    in
    let buf = Buffer.create 512 in
    let ppf = Format.formatter_of_buffer buf in
    match
      (* Never [~debug]: exceptions must become replies, not crashes. *)
      Engine.run ppf compiled ~opts:options ~specs ~cancel ~debug:false
        ~jobs:1 ~prepare:warm_reach
    with
    | Error msg -> Protocol.error_reply ~id msg
    | Ok ((reach_reused, reach_states), o) ->
      Format.pp_print_flush ppf ();
      let stats =
        if options.Engine.stats then
          Some (Bdd.diff_stats (Bdd.stats man) stats_before)
        else None
      in
      Protocol.check_reply ~id ~exit_code:o.Engine.exit_code
        ~verdicts:
          (List.map
             (fun (sv_name, sv_report) -> { Protocol.sv_name; sv_report })
             o.Engine.verdicts)
        ~output:(Buffer.contents buf) ~warm ~reach_reused ?reach_states
        ?stats
        ~faults_fired:(Bdd.Fault.fired man - fired_before)
        ~time_ms:((Bdd.now_monotonic () -. t0) *. 1000.) ())

(* The never-raise wrapper around [process]: whatever escapes the
   engine's own isolation becomes an error reply, and the server
   lives on. *)
let process_safe cache ~debug ~id ~model ~specs ~options ~cancel =
  match process cache ~id ~model ~specs ~options ~cancel with
  | reply -> reply
  | exception e ->
    let msg = Printf.sprintf "internal error: %s" (Printexc.to_string e) in
    let msg =
      if debug then msg ^ "\n" ^ Printexc.get_backtrace () else msg
    in
    Protocol.error_reply ~id msg

(* ------------------------------------------------------------------ *)
(* Connection handling (reader side) *)

(* The status reply is assembled (and sent) inline on the reader
   thread — a health probe must answer promptly even when every worker
   is busy and the queue is full. *)
let send_status cfg cache pool ov persist conn =
  let s = Overload.stats ov in
  let pc =
    match persist with
    | Some p -> Persist.counters p
    | None ->
      { Persist.snapshots = 0; restores = 0; quarantines = 0 }
  in
  let infos = Cache.snapshot cache in
  let mem_live =
    List.fold_left (fun acc i -> acc + i.Cache.i_live) 0 infos
  in
  let faults =
    List.fold_left (fun acc i -> acc + i.Cache.i_faults) 0 infos
  in
  let models =
    List.map
      (fun (i : Cache.info) ->
        Protocol.
          {
            ms_key = i.Cache.i_key;
            ms_busy = i.Cache.i_busy;
            ms_uses = i.Cache.i_uses;
            ms_warm = i.Cache.i_warm;
            ms_live_nodes = i.Cache.i_live;
            ms_clamped = i.Cache.i_clamped;
          })
      infos
  in
  send conn
    (Protocol.status_reply
       Protocol.
         {
           ss_uptime_s = s.Overload.uptime_s;
           ss_workers = cfg.jobs;
           ss_queue_depth = Parallel.Pool.pending pool;
           ss_max_pending = cfg.max_pending;
           ss_inflight = s.Overload.inflight;
           ss_shed_queue = s.Overload.shed_queue;
           ss_shed_inflight = s.Overload.shed_inflight;
           ss_shed_cold = s.Overload.shed_cold;
           ss_watchdog_evictions = s.Overload.evictions;
           ss_cache_clamps = s.Overload.clamps;
           ss_level_transitions = s.Overload.transitions;
           ss_pressure_level = s.Overload.level;
           ss_mem_live_nodes = mem_live;
           ss_mem_high_water = cfg.mem_high_water;
           ss_respawns = Parallel.Pool.respawns pool;
           ss_avg_check_ms =
             Option.map (fun t -> t *. 1000.) s.Overload.avg_check_s;
           ss_faults_fired = faults;
           ss_snapshots = pc.Persist.snapshots;
           ss_restores = pc.Persist.restores;
           ss_quarantines = pc.Persist.quarantines;
           ss_restarts = cfg.restarts;
           ss_checks = s.Overload.checks;
           ss_cache_capacity = Cache.capacity cache;
           ss_models = models;
         })

let handle_request cfg cache pool ov persist conn stop payload =
  match Protocol.parse_request payload with
  | Error msg -> send conn (Protocol.error_reply msg)
  | Ok Protocol.Ping -> send conn Protocol.pong_reply
  | Ok Protocol.Status -> send_status cfg cache pool ov persist conn
  | Ok Protocol.Shutdown ->
    send conn Protocol.shutdown_reply;
    Atomic.set stop true
  | Ok (Protocol.Cancel { id }) ->
    let found =
      with_lock conn.inflight_lock @@ fun () ->
      match Hashtbl.find_opt conn.inflight id with
      | Some cancel ->
        Atomic.set cancel true;
        true
      | None -> false
    in
    send conn (Protocol.cancel_reply ~id ~found)
  | Ok (Protocol.Check { id; model; specs; options }) -> (
    let overloaded reason =
      Overload.shed ov reason;
      let queue_depth = Parallel.Pool.pending pool in
      send conn
        (Protocol.overloaded_reply ~id
           ~reason:(Overload.reason_string reason)
           ~queue_depth
           ~retry_after_ms:
             (Overload.retry_after_ms ov ~queue_depth ~workers:cfg.jobs))
    in
    let cancel = Atomic.make false in
    (* Duplicate test, cap test and registration are one atomic step —
       two racing frames with the same id cannot both register. *)
    let admission =
      with_lock conn.inflight_lock @@ fun () ->
      if Hashtbl.mem conn.inflight id then `Duplicate
      else
        match cfg.max_inflight with
        | Some cap when Hashtbl.length conn.inflight >= cap ->
          `Shed Overload.Inflight_cap
        | Some _ | None ->
          Hashtbl.add conn.inflight id cancel;
          `Admitted
    in
    let drop_id () =
      with_lock conn.inflight_lock (fun () -> Hashtbl.remove conn.inflight id)
    in
    match admission with
    | `Duplicate ->
      (* The live check keeps the id: answering the duplicate with its
         reply would leave one of the two frames reply-less. *)
      send conn
        (Protocol.error_reply ~id
           (Printf.sprintf "duplicate in-flight id %S" id))
    | `Shed reason -> overloaded reason
    | `Admitted ->
      let refuse_cold =
        (not (Overload.admit_cold ov))
        &&
        let key, _, _ = pool_key ~model options in
        not (Cache.is_warm cache ~key)
      in
      if refuse_cold then begin
        drop_id ();
        overloaded Overload.Memory_pressure
      end
      else begin
        let options = apply_defaults cfg options in
        let task () =
          let t0 = Bdd.now_monotonic () in
          let reply =
            process_safe cache ~debug:cfg.debug ~id ~model ~specs ~options
              ~cancel
          in
          drop_id ();
          send conn reply;
          crash_tick ();
          Overload.finished ov (Bdd.now_monotonic () -. t0)
        in
        (* Count the admission before queueing so [inflight] can never
           under-report a queued check; a lost queue-slot race retracts
           it. *)
        Overload.admitted ov;
        match Parallel.Pool.try_submit pool task with
        | None ->
          Overload.retract ov;
          drop_id ();
          overloaded Overload.Queue_full
        | Some future ->
          (* Prune settled futures as we append — a long-lived
             connection must not accumulate one closure per request
             served. *)
          with_lock conn.inflight_lock (fun () ->
              conn.futures <-
                future
                :: List.filter
                     (fun f -> not (Parallel.Pool.is_settled f))
                     conn.futures)
      end)

(* Read frames until EOF or drain; then settle the connection's
   in-flight checks.  A client that disconnected (EOF while the server
   is not draining) cancels its own in-flight requests — nobody is
   listening for those replies. *)
let reader_loop cfg cache pool ov persist conn stop =
  let rec loop () =
    match Frame.read ~should_stop:(fun () -> Atomic.get stop) conn.fd_in with
    | Some payload ->
      handle_request cfg cache pool ov persist conn stop payload;
      if not (Atomic.get stop) then loop ()
    | None -> ()
    | exception Frame.Closed -> ()
    | exception Frame.Oversized n ->
      send conn
        (Protocol.error_reply
           (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" n
              Frame.max_frame))
      (* framing is lost beyond this point: drop the connection *)
  in
  loop ();
  if not (Atomic.get stop) then
    with_lock conn.inflight_lock (fun () ->
        Hashtbl.iter (fun _ c -> Atomic.set c true) conn.inflight);
  let futures = with_lock conn.inflight_lock (fun () -> conn.futures) in
  List.iter (fun f -> ignore (Parallel.Pool.await f)) futures

let make_conn fd_in fd_out =
  {
    fd_in;
    fd_out;
    write_lock = Mutex.create ();
    inflight_lock = Mutex.create ();
    inflight = Hashtbl.create 8;
    futures = [];
  }

(* ------------------------------------------------------------------ *)
(* Entry point *)

let install_signals stop =
  let handle _ = Atomic.set stop true in
  let try_install s h =
    match Sys.set_signal s h with
    | () -> ()
    | exception (Invalid_argument _ | Sys_error _) -> ()
  in
  (* EPIPE must surface as a write error (handled per-connection), not
     kill the process. *)
  try_install Sys.sigpipe Sys.Signal_ignore;
  try_install Sys.sigint (Sys.Signal_handle handle);
  try_install Sys.sigterm (Sys.Signal_handle handle)

(* Unlink a socket path, logging (never raising) on failure: a path
   we cannot remove means the next bind will fail mysteriously, so the
   errno belongs in the log, not in a swallowed exception.  ENOENT is
   the expected case on crash paths (nothing to clean) and stays
   silent. *)
let unlink_socket ~what path =
  match Unix.unlink path with
  | () -> ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | exception Unix.Unix_error (e, _, _) ->
    Format.eprintf
      "smv_check --serve: warning: cannot remove %s socket %s: %s@." what
      path (Unix.error_message e)

(* Claim [path] and return a listening fd.  A stale socket file from a
   previous run (or a SIGKILLed child) would make bind fail; replacing
   it is the conventional daemon behaviour — but only a socket.
   Unlinking whatever else sits at the path (a model file passed by
   mistake, say) would destroy user data on a typo. *)
let bind_socket ~path =
  let path_ok =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_SOCK; _ } ->
      unlink_socket ~what:"stale" path;
      true
    | { Unix.st_kind = _; _ } -> false
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> true
    | exception Unix.Unix_error _ -> true (* let bind report it *)
  in
  if not path_ok then
    Error
      (Printf.sprintf "%s exists and is not a socket; refusing to replace it"
         path)
  else begin
    let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match
      Unix.bind listen_fd (Unix.ADDR_UNIX path);
      Unix.listen listen_fd 64
    with
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot listen on %s: %s" path (Unix.error_message e))
    | () -> Ok listen_fd
  end

(* The idle-pressure persistence tick, shared by both serve modes:
   snapshot dirty idle models, but only when the overload ladder is
   at level 0 (low water) — under pressure the watchdog is busy
   evicting, and adding disk writes would help nothing — and at most
   once a second, so a hot model is not re-dumped 4x per second. *)
let persist_ticker ov cache persist =
  let last = ref (Bdd.now_monotonic ()) in
  fun () ->
    match persist with
    | Some p when Overload.level ov = 0 ->
      let now = Bdd.now_monotonic () in
      if now -. !last >= 1.0 then begin
        last := now;
        Persist.tick p cache
      end
    | Some _ | None -> ()

let serve_stdio cfg cache pool ov persist stop =
  let conn = make_conn Unix.stdin Unix.stdout in
  (* No accept loop to piggyback the watchdog on: give it a timer
     thread, but only when a high-water mark (or a state dir) makes
     it do anything. *)
  let ptick = persist_ticker ov cache persist in
  let watchdog_stop = Atomic.make false in
  let watchdog_thread =
    match (cfg.mem_high_water, persist) with
    | None, None -> None
    | Some _, _ | _, Some _ ->
      Some
        (Thread.create
           (fun () ->
             while not (Atomic.get watchdog_stop) do
               Thread.delay 0.25;
               if not (Atomic.get watchdog_stop) then begin
                 Overload.watchdog ov cache;
                 ptick ()
               end
             done)
           ())
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set watchdog_stop true;
      Option.iter Thread.join watchdog_thread)
    (fun () -> reader_loop cfg cache pool ov persist conn stop);
  0

(* The accept loop proper, over an already-listening fd.  [owns_path]
   says whether this process should unlink the socket path on exit:
   true for a standalone daemon, false for a supervised child (the
   supervisor owns the path and the fd; a child that unlinked it
   would tear the endpoint out from under its own successor). *)
let serve_listening cfg cache pool ov persist stop ~path ~listen_fd
    ~owns_path =
  Format.eprintf "smv_check: serving on %s (%d worker%s)@." path cfg.jobs
    (if cfg.jobs = 1 then "" else "s");
  let ptick = persist_ticker ov cache persist in
  let conns_lock = Mutex.create () in
  let conns : (int, conn) Hashtbl.t = Hashtbl.create 8 in
  let next_id = ref 0 in
  (* Reader threads are tracked in a table and reaped as they
     finish: each pushes itself onto [finished] on exit, and the
     accept loop joins and drops it on the next tick.  Both the
     registration and the reap run on the main thread, so a thread
     can never be reaped before it is registered. *)
  let threads : (int, Thread.t) Hashtbl.t = Hashtbl.create 8 in
  let finished : Thread.t list ref = ref [] in
  let reap () =
    let fin =
      with_lock conns_lock @@ fun () ->
      let f = !finished in
      finished := [];
      f
    in
    List.iter
      (fun t ->
        Thread.join t;
        with_lock conns_lock (fun () -> Hashtbl.remove threads (Thread.id t)))
      fin
  in
  let accept_one fd =
    let conn = make_conn fd fd in
    let id =
      with_lock conns_lock @@ fun () ->
      incr next_id;
      Hashtbl.replace conns !next_id conn;
      !next_id
    in
    let thread =
      Thread.create
        (fun () ->
          Fun.protect
            ~finally:(fun () ->
              with_lock conns_lock (fun () ->
                  Hashtbl.remove conns id;
                  finished := Thread.self () :: !finished);
              try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () -> reader_loop cfg cache pool ov persist conn stop))
        ()
    in
    with_lock conns_lock (fun () ->
        Hashtbl.replace threads (Thread.id thread) thread)
  in
  (* Accept with a select tick so the loop notices [stop] promptly
     even when no connection ever arrives; the same tick drives
     the watchdog, the thread reaper and the persistence layer,
     throttled to the tick period even when accepts keep select from
     timing out. *)
  let last_tick = ref (Bdd.now_monotonic ()) in
  let tick () =
    let now = Bdd.now_monotonic () in
    if now -. !last_tick >= 0.25 then begin
      last_tick := now;
      reap ();
      Overload.watchdog ov cache;
      ptick ()
    end
  in
  let rec accept_loop () =
    if not (Atomic.get stop) then begin
      (match Unix.select [ listen_fd ] [] [] 0.25 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
        match Unix.accept listen_fd with
        | fd, _ -> accept_one fd
        | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _)
          ->
          ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      tick ();
      accept_loop ()
    end
  in
  accept_loop ();
  (* Drain: wake readers parked in [read] by shutting their receive
     sides, then join them (each settles its in-flight futures
     before exiting). *)
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  with_lock conns_lock (fun () ->
      Hashtbl.iter
        (fun _ c ->
          try Unix.shutdown c.fd_in Unix.SHUTDOWN_RECEIVE
          with Unix.Unix_error _ -> ())
        conns);
  reap ();
  let remaining =
    with_lock conns_lock (fun () ->
        Hashtbl.fold (fun _ t acc -> t :: acc) threads [])
  in
  List.iter Thread.join remaining;
  if owns_path then unlink_socket ~what:"served" path;
  0

let validate cfg =
  let bad_opt name = function
    | Some n when n < 1 -> Some (name ^ " must be >= 1")
    | _ -> None
  in
  let bad_time name = function
    | Some t when t <= 0. -> Some (name ^ " must be > 0")
    | _ -> None
  in
  List.find_map Fun.id
    [
      (if cfg.jobs < 1 then Some "jobs must be >= 1" else None);
      (if cfg.capacity < 1 then Some "cache capacity must be >= 1" else None);
      bad_opt "max-pending" cfg.max_pending;
      bad_opt "max-inflight" cfg.max_inflight;
      bad_opt "default-node-limit" cfg.default_node_limit;
      bad_opt "mem-high-water" cfg.mem_high_water;
      bad_opt "child-crash" cfg.crash_after;
      bad_time "default-timeout" cfg.default_timeout;
      bad_time "max-timeout" cfg.max_timeout;
    ]

(* Shared server setup + teardown around a mode-specific [run]: arm
   the crash fault site, build pool / cache / overload state, rehydrate
   warm models from the state dir, and on a {e graceful} exit flush
   them back.  A crash by definition skips the flush — that is what
   the watchdog ticks and the rehydrate path are for. *)
let serve_with cfg run =
  let invalid msg =
    Format.eprintf "smv_check --serve: %s@." msg;
    3
  in
  match validate cfg with
  | Some msg -> invalid msg
  | None -> (
    match
      Option.map
        (fun dir -> Persist.create ~dir ~debug:cfg.debug)
        cfg.state_dir
    with
    | exception Invalid_argument msg -> invalid msg
    | persist ->
      (match cfg.crash_after with
      | Some k -> Atomic.set crash_countdown k
      | None -> Atomic.set crash_countdown min_int);
      let stop = Atomic.make false in
      install_signals stop;
      let cache = Cache.create ~capacity:cfg.capacity in
      Option.iter
        (fun p ->
          let restored = Persist.rehydrate p cache in
          if restored > 0 && cfg.debug then
            Format.eprintf "smv_check --serve: rehydrated %d warm model%s@."
              restored
              (if restored = 1 then "" else "s"))
        persist;
      let pool = Parallel.Pool.create ?max_pending:cfg.max_pending cfg.jobs in
      let ov = Overload.create ?mem_high_water:cfg.mem_high_water () in
      Fun.protect
        ~finally:(fun () -> Parallel.Pool.shutdown pool)
        (fun () ->
          let code = run cfg cache pool ov persist stop in
          Option.iter (fun p -> Persist.flush p cache) persist;
          code))

let serve cfg =
  serve_with cfg (fun cfg cache pool ov persist stop ->
      match cfg.socket with
      | None -> serve_stdio cfg cache pool ov persist stop
      | Some path -> (
        match bind_socket ~path with
        | Error msg ->
          Format.eprintf "smv_check --serve: %s@." msg;
          3
        | Ok listen_fd ->
          serve_listening cfg cache pool ov persist stop ~path ~listen_fd
            ~owns_path:true))

(* A supervised child: the parent already holds the listening fd (so
   clients never see ECONNREFUSED across a restart) and owns the
   socket path. *)
let serve_fd cfg ~path ~listen_fd =
  serve_with cfg (fun cfg cache pool ov persist stop ->
      serve_listening cfg cache pool ov persist stop ~path ~listen_fd
        ~owns_path:false)

(* ------------------------------------------------------------------ *)
(* The one-shot status client (--status) *)

let status_client ~socket:path =
  let fail fmt =
    Format.kasprintf
      (fun msg ->
        Format.eprintf "smv_check --status: %s@." msg;
        3)
      fmt
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | exception Unix.Unix_error (e, _, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    fail "cannot connect to %s: %s" path (Unix.error_message e)
  | () -> (
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    match
      Frame.write fd {|{"op":"status"}|};
      Frame.read fd
    with
    | Some payload ->
      print_endline payload;
      0
    | None | (exception Frame.Closed) ->
      fail "connection closed without a reply"
    | exception Frame.Oversized n ->
      fail "oversized status reply (%d bytes)" n)
