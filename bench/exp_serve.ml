(* E14 — check-server warm-manager reuse: cold vs warm request latency.

   The --serve daemon keeps a pool of compiled models keyed by source
   digest; a repeat request for the same model skips parsing, BDD
   construction, variable ordering, and — via the memoised reachable
   set — the whole forward fixpoint, and starts from hot op-caches.
   This experiment measures what that buys on the two families the
   smoke tests use: the arbiter (declared order, the build pays) and
   the binary counter (deep fixpoint, the reachable-set memo pays).

   Three request shapes per workload, driven through the same
   Server.Cache the daemon uses (in-process, so the numbers isolate
   manager reuse from protocol and scheduling overhead):

     cold       first request: compile + reach + check every spec;
     warm       identical repeat request: cached everything;
     warm+spec  same model, a previously unseen spec: reuses the
                compiled model, order and reachable set, but must do
                real fixpoint work for the new property.

   Verdicts must be identical between cold and warm runs — reuse may
   only move time and node counts. *)

(* One daemon-shaped request against a shared cache: acquire the
   entry, compile on a miss, reach, check, release.  Returns verdicts
   and the per-request node delta (Bdd.diff_stats over the request
   window — the same accounting the server reports per reply). *)
let request cache ~source ?extra_spec () =
  let key =
    Server.Cache.digest ~source ~partitioned:false ~static_order:false
  in
  let entry, warm = Server.Cache.acquire cache ~key in
  Fun.protect ~finally:(fun () -> Server.Cache.release cache entry)
  @@ fun () ->
  let compiled =
    match entry.Server.Cache.compiled with
    | Some c -> c
    | None ->
      let c = Smv.load_string source in
      entry.Server.Cache.compiled <- Some c;
      c
  in
  let m = compiled.Smv.Compile.model in
  let before = Bdd.stats m.Kripke.man in
  ignore (Kripke.reachable m);
  let specs =
    compiled.Smv.Compile.specs
    @
    match extra_spec with
    | None -> []
    | Some text -> [ (text, Smv.Compile.compile_expr compiled text) ]
  in
  let verdicts = List.map (fun (_, f) -> Ctl.Check.holds m f) specs in
  let after = Bdd.stats m.Kripke.man in
  (verdicts, warm, (Bdd.diff_stats after before).Bdd.total_nodes)

let sweep ~workload ~extra_spec src rows =
  let cache = Server.Cache.create ~capacity:4 in
  let run ?extra_spec () =
    Harness.time_once (fun () -> request cache ~source:src ?extra_spec ())
  in
  let (cold_verdicts, cold_warm, cold_nodes), t_cold = run () in
  let (warm_verdicts, warm_warm, warm_nodes), t_warm = run () in
  let (_, _, spec_nodes), t_spec = run ~extra_spec () in
  if cold_warm then failwith ("E14: first request claimed warm on " ^ workload);
  if not warm_warm then
    failwith ("E14: repeat request stayed cold on " ^ workload);
  if cold_verdicts <> warm_verdicts then
    failwith ("E14: warm reuse changed a verdict on " ^ workload);
  let speedup = t_cold /. Float.max 1e-9 t_warm in
  Harness.emit_json ~experiment:"E14"
    [
      ("workload", Harness.String workload);
      ("cold_s", Harness.Float t_cold);
      ("warm_s", Harness.Float t_warm);
      ("warm_new_spec_s", Harness.Float t_spec);
      ("speedup", Harness.Float speedup);
      ("cold_nodes", Harness.Int cold_nodes);
      ("warm_nodes", Harness.Int warm_nodes);
      ("warm_new_spec_nodes", Harness.Int spec_nodes);
    ];
  rows
  @ [
      [
        workload;
        Harness.seconds_string t_cold;
        Harness.seconds_string t_warm;
        Printf.sprintf "%.0fx" speedup;
        Harness.seconds_string t_spec;
        string_of_int cold_nodes;
        string_of_int warm_nodes;
      ];
    ]

let run ~full =
  let arb_users = if full then 10 else 8 in
  let ctr_bits = if full then 14 else 12 in
  let rows =
    sweep
      ~workload:(Printf.sprintf "arbiter%d" arb_users)
      ~extra_spec:"AG (req2 -> AF ack2)"
      (Exp_reorder.arbiter_smv arb_users)
      []
  in
  let rows =
    sweep
      ~workload:(Printf.sprintf "counter%d" ctr_bits)
      ~extra_spec:"AG EF (!b0 & !b1)"
      (Exp_reorder.counter_smv ctr_bits)
      rows
  in
  Harness.print_table
    ~title:
      "E14: check-server manager reuse — cold vs warm request latency \
       (identical verdicts enforced)"
    ~header:
      [ "workload"; "cold"; "warm"; "speedup"; "warm+spec"; "nodes cold";
        "nodes warm" ]
    rows;
  Harness.note
    "cold: compile + reachable fixpoint + all specs on a fresh manager —";
  Harness.note
    "what every one-shot CLI run pays.  warm: the identical repeat request";
  Harness.note
    "against the server's cache — hot op-caches and the memoised reachable";
  Harness.note
    "set leave (near) zero new nodes.  warm+spec: same model, new property —";
  Harness.note
    "the reachable set and order are reused, only the new spec's fixpoints run."

let bechamel =
  let cache = lazy (Server.Cache.create ~capacity:2) in
  let src = lazy (Exp_reorder.arbiter_smv 6) in
  Bechamel.Test.make ~name:"e14-arbiter6-warm-request"
    (Bechamel.Staged.stage (fun () ->
         request (Lazy.force cache) ~source:(Lazy.force src) ()))

(* ================================================================== *)
(* E15 — overload protection: the cost of shedding and what a
   saturated server still completes.

   Two measurements against the same admission machinery the daemon
   uses (Parallel.Pool.try_submit + Overload + Protocol reply
   builders, in-process so the numbers isolate the mechanism from
   client I/O):

     shed reply    a gated 1-worker pool with a full pending queue —
                   every admission sheds, and we time the complete
                   rejection path the reader thread runs per refused
                   frame: admission probe, shed accounting, retry-
                   after hint, reply build.  This is the latency a
                   client sees under overload, and it must stay
                   microseconds — shedding that is slower than serving
                   defeats its purpose;
     saturation    a 2-worker pool with --max-pending 8 semantics fed
                   requests as fast as they are refused: how many warm
                   checks per second still complete while the shed
                   path absorbs the rest.  Overload must not collapse
                   goodput. *)

(* One warm daemon-shaped check, serialising on the entry lock exactly
   as the server does (two workers may race for the same model). *)
let locked_request cache ~key () =
  let entry, _ = Server.Cache.acquire cache ~key in
  Fun.protect ~finally:(fun () -> Server.Cache.release cache entry)
  @@ fun () ->
  Mutex.lock entry.Server.Cache.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock entry.Server.Cache.lock)
  @@ fun () ->
  let compiled = Option.get entry.Server.Cache.compiled in
  let m = compiled.Smv.Compile.model in
  ignore (Kripke.reachable m);
  List.iter
    (fun (_, f) -> ignore (Ctl.Check.holds m f))
    compiled.Smv.Compile.specs

let shed_reply ov pool ~workers ~sink =
  let depth = Parallel.Pool.pending pool in
  Server.Overload.shed ov Server.Overload.Queue_full;
  let reply =
    Server.Protocol.overloaded_reply ~id:"bench" ~reason:"queue"
      ~queue_depth:depth
      ~retry_after_ms:
        (Server.Overload.retry_after_ms ov ~queue_depth:depth ~workers)
  in
  sink := !sink + String.length reply

let run_overload ~full =
  let module Pool = Parallel.Pool in
  (* 1. Shed-reply latency on a wedged server. *)
  let ov = Server.Overload.create ~log:ignore () in
  let pool = Pool.create ~max_pending:4 1 in
  let gate = Atomic.make false in
  let blocker =
    Pool.submit pool (fun () ->
        while not (Atomic.get gate) do
          Domain.cpu_relax ()
        done)
  in
  while Pool.pending pool > 0 do
    Domain.cpu_relax ()
  done;
  for _ = 1 to 4 do
    ignore (Pool.try_submit pool (fun () -> ()))
  done;
  let shed_iters = if full then 200_000 else 50_000 in
  let sink = ref 0 in
  let (), t_shed =
    Harness.time_once (fun () ->
        for _ = 1 to shed_iters do
          match Pool.try_submit pool (fun () -> ()) with
          | Some _ -> failwith "E15: a saturated pool admitted a task"
          | None -> shed_reply ov pool ~workers:1 ~sink
        done)
  in
  Atomic.set gate true;
  ignore (Pool.await blocker);
  Pool.shutdown pool;
  let shed_ns = t_shed /. float_of_int shed_iters *. 1e9 in
  (* 2. Saturation goodput: flood a 2-worker pool with warm checks. *)
  let users = if full then 8 else 6 in
  let workload = Printf.sprintf "arbiter%d" users in
  let src = Exp_reorder.arbiter_smv users in
  let cache = Server.Cache.create ~capacity:2 in
  ignore (request cache ~source:src ());
  let key =
    Server.Cache.digest ~source:src ~partitioned:false ~static_order:false
  in
  let ov2 = Server.Overload.create ~log:ignore () in
  let pool2 = Pool.create ~max_pending:8 2 in
  let completed = Atomic.make 0 in
  let task () =
    locked_request cache ~key ();
    Atomic.incr completed
  in
  let admitted = ref 0 and sheds = ref 0 in
  let duration = if full then 3.0 else 1.0 in
  let t0 = Bdd.now_monotonic () in
  let deadline = t0 +. duration in
  while Bdd.now_monotonic () < deadline do
    match Pool.try_submit pool2 task with
    | Some _ -> incr admitted
    | None -> shed_reply ov2 pool2 ~workers:2 ~sink
  done;
  sheds := (Server.Overload.stats ov2).Server.Overload.shed_queue;
  Pool.shutdown pool2;
  let elapsed = Bdd.now_monotonic () -. t0 in
  let done_n = Atomic.get completed in
  if done_n <> !admitted then
    failwith "E15: an admitted check never completed";
  if done_n = 0 || !sheds = 0 then
    failwith "E15: saturation loop must both serve and shed";
  let goodput = float_of_int done_n /. elapsed in
  Harness.emit_json ~experiment:"E15"
    [
      ("workload", Harness.String workload);
      ("shed_reply_ns", Harness.Float shed_ns);
      ("saturation_s", Harness.Float elapsed);
      ("completed", Harness.Int done_n);
      ("shed", Harness.Int !sheds);
      ("completed_per_s", Harness.Float goodput);
    ];
  Harness.print_table
    ~title:
      "E15: overload protection — shed-reply latency and saturated \
       goodput (2 workers, max-pending 8)"
    ~header:
      [ "workload"; "shed reply"; "flood"; "served"; "shed"; "served/s" ]
    [
      [
        workload;
        Harness.ns_string shed_ns;
        Harness.seconds_string elapsed;
        string_of_int done_n;
        string_of_int !sheds;
        Printf.sprintf "%.1f" goodput;
      ];
    ];
  Harness.note
    "shed reply: the full refusal path per frame on a wedged server —";
  Harness.note
    "admission probe, shed accounting, retry-after hint, reply build.";
  Harness.note
    "flood: requests submitted as fast as they are refused; served is";
  Harness.note
    "warm checks completed while the queue bound sheds the excess —";
  Harness.note
    "admission control trades queue depth for goodput, never correctness."

let bechamel_overload =
  (* The pure reader-side shed path (no pool: a worker domain parked
     for the whole bechamel quota would outlive the measurement). *)
  let ov =
    lazy
      (let ov = Server.Overload.create ~log:ignore () in
       Server.Overload.finished ov 0.02;
       ov)
  in
  Bechamel.Test.make ~name:"e15-shed-reply-build"
    (Bechamel.Staged.stage (fun () ->
         let ov = Lazy.force ov in
         Server.Protocol.overloaded_reply ~id:"bench" ~reason:"queue"
           ~queue_depth:8
           ~retry_after_ms:
             (Server.Overload.retry_after_ms ov ~queue_depth:8 ~workers:2)))

(* ================================================================== *)
(* E17 — restart-to-warm latency: rehydrating a crashed server from a
   Bdd.Snapshot (via Server.Persist) vs paying the full cold recheck.

   The crash-only serving mode (--supervise + --state-dir) claims that
   a restarted child is warm within its first request because it loads
   the last snapshot instead of recompiling.  This experiment measures
   exactly that trade on the arbiter (the workload where cold is most
   expensive: the declared-order build dominates):

     cold recheck      compile + order + reach + all specs on a fresh
                       manager — what a crashed server without durable
                       state pays on its first post-restart request;
     snapshot save     one Persist.save_entry (dump + checksum + write);
     snapshot restore  Persist.load_entry — read, validate, rebuild
                       subtables, reconstruct the compiled artifact;
     first warm check  the identical request against the rehydrated
                       entry: must report warm, reuse the reachable
                       set, allocate zero new nodes, and agree with
                       the cold verdicts byte for byte.

   restart-to-warm = restore + first check, the client-visible latency
   of the first request after a supervised restart. *)

let run_restart ~full =
  let users = if full then 10 else 8 in
  let workload = Printf.sprintf "arbiter%d" users in
  let src = Exp_reorder.arbiter_smv users in
  (* Pre-crash: one cold request warms the pool entry (this is also
     the cold-recheck baseline), then a persist write snapshots it. *)
  let cache = Server.Cache.create ~capacity:2 in
  let (cold_verdicts, _, _), t_cold =
    Harness.time_once (fun () -> request cache ~source:src ())
  in
  let key =
    Server.Cache.digest ~source:src ~partitioned:false ~static_order:false
  in
  let compiled =
    let entry, _ = Server.Cache.acquire cache ~key in
    Fun.protect ~finally:(fun () -> Server.Cache.release cache entry)
    @@ fun () -> Option.get entry.Server.Cache.compiled
  in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "bench_e17_%d" (Unix.getpid ()))
  in
  let persist = Server.Persist.create ~dir ~debug:false in
  let saved, t_save =
    Harness.time_once (fun () ->
        Server.Persist.save_entry persist ~key ~uses:1 compiled)
  in
  if not saved then failwith "E17: snapshot write failed";
  let path = Filename.concat dir (key ^ ".warm") in
  let snapshot_bytes = (Unix.stat path).Unix.st_size in
  (* The restart: a fresh process would load the file, seed its pool,
     and serve the first request warm. *)
  let (key', restored), t_restore =
    Harness.time_once (fun () -> Server.Persist.load_entry path)
  in
  if key' <> key then failwith "E17: snapshot key mismatch";
  let cache2 = Server.Cache.create ~capacity:2 in
  if not (Server.Cache.seed cache2 ~key ~compiled:restored) then
    failwith "E17: rehydrated entry not seeded";
  let (warm_verdicts, was_warm, warm_nodes), t_first =
    Harness.time_once (fun () -> request cache2 ~source:src ())
  in
  if not was_warm then failwith "E17: rehydrated request stayed cold";
  if warm_nodes <> 0 then
    failwith
      (Printf.sprintf "E17: rehydrated request allocated %d nodes" warm_nodes);
  if warm_verdicts <> cold_verdicts then
    failwith "E17: rehydration changed a verdict";
  (try Sys.remove path with Sys_error _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  let restart_to_warm = t_restore +. t_first in
  let speedup = t_cold /. Float.max 1e-9 restart_to_warm in
  Harness.emit_json ~experiment:"E17"
    [
      ("workload", Harness.String workload);
      ("cold_recheck_s", Harness.Float t_cold);
      ("snapshot_save_s", Harness.Float t_save);
      ("snapshot_restore_s", Harness.Float t_restore);
      ("first_warm_check_s", Harness.Float t_first);
      ("restart_to_warm_s", Harness.Float restart_to_warm);
      ("speedup", Harness.Float speedup);
      ("snapshot_bytes", Harness.Int snapshot_bytes);
      ("warm_nodes", Harness.Int warm_nodes);
    ];
  Harness.print_table
    ~title:
      "E17: restart-to-warm — snapshot restore vs cold recheck after a \
       crash (identical verdicts enforced)"
    ~header:
      [ "workload"; "cold recheck"; "save"; "restore"; "first check";
        "restart-to-warm"; "speedup"; "bytes" ]
    [
      [
        workload;
        Harness.seconds_string t_cold;
        Harness.seconds_string t_save;
        Harness.seconds_string t_restore;
        Harness.seconds_string t_first;
        Harness.seconds_string restart_to_warm;
        Printf.sprintf "%.0fx" speedup;
        string_of_int snapshot_bytes;
      ];
    ];
  Harness.note
    "cold recheck: what a restarted server without --state-dir pays on its";
  Harness.note
    "first request.  restore: Persist.load_entry — read, checksum, rebuild";
  Harness.note
    "unique tables (re-proving canonicity per node), reconstruct the model.";
  Harness.note
    "first check: the identical request on the rehydrated entry — warm,";
  Harness.note
    "memoised reachable set, zero new nodes.  The snapshot turns a crash";
  Harness.note
    "from a full recompute into a file read."

let bechamel_restart =
  (* Snapshot dump throughput on a warm mid-size manager. *)
  let man =
    lazy
      (let cache = Server.Cache.create ~capacity:1 in
       let src = Exp_reorder.arbiter_smv 6 in
       ignore (request cache ~source:src ());
       let key =
         Server.Cache.digest ~source:src ~partitioned:false
           ~static_order:false
       in
       let entry, _ = Server.Cache.acquire cache ~key in
       let compiled = Option.get entry.Server.Cache.compiled in
       compiled.Smv.Compile.model.Kripke.man)
  in
  Bechamel.Test.make ~name:"e17-arbiter6-snapshot-dump"
    (Bechamel.Staged.stage (fun () ->
         ignore (Bdd.Snapshot.dump (Lazy.force man) : string)))
