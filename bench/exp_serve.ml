(* E14 — check-server warm reuse: cold vs warm request latency, the
   pool under churn, and the op-cache cap long-lived managers run at.

   The --serve daemon keeps a pool of compiled models keyed by source
   digest; a repeat request for the same model skips parsing, BDD
   construction and — via the memoised reachable set — the forward
   fixpoint, starts from hot op-caches, and decides and explains
   through the fixpoint memo the entry keeps for its model's life, so
   it re-runs none of the spec fixpoints an earlier request ran.  This
   experiment measures what that buys on the two families the smoke
   tests use: the arbiter and the binary counter (deep fixpoint: the
   reachable-set memo and the fixpoint memo pay).

   Three request shapes per workload, driven through the same
   Server.Cache and Server.Engine.run the daemon uses (in-process, so
   the numbers isolate reuse from protocol and scheduling overhead):

     cold       first request: compile + reach + check every spec;
     warm       identical repeat request: cached everything;
     warm+spec  same model, a previously unseen spec: reuses the
                compiled model, reachable set and the memo's fixpoints,
                but must do real fixpoint work for the new property.

   Verdicts and output must be identical between cold and warm runs —
   reuse may only move time and node counts.

   The churn rows replay serve-mix's pool pressure: its seven models
   against a pool of six, with 15% of the requests one-off sources and
   20% a model's source with one of its fixed extra formulas; the warm
   hit ratio is the share of requests for the seven models that found
   theirs pooled, and the repeat latencies (median, mean, and the mean
   of the per-model medians) show what the evictions that remain cost.
   churn7 asks for the same seven all run long; churn7-shift replaces
   one of them by an edited version every tenth of the run, so the hot
   set moves.  The cap rows run perfbench's one-shot inputs (and
   larger siblings) with the op caches capped at 2^14 entries
   (Bdd.cache_hard_cap) and at 2^18 (the former cap, installed as a
   cache limit). *)

(* One daemon-shaped request against a shared cache: acquire the
   entry, compile on a miss, reach, then [Server.Engine.run] on the
   entry's memo under its lock, [Server.Cache.after_request] (the
   daemon's cost charge and collection), release.  Returns the
   verdicts, the warm flag, the per-request node delta (Bdd.diff_stats
   over the request window — the same accounting the server reports
   per reply) and the printed output. *)
let request cache ~source ?extra_spec () =
  let key = Server.Cache.digest ~source in
  let entry, warm = Server.Cache.acquire cache ~key in
  Fun.protect ~finally:(fun () -> Server.Cache.release cache entry)
  @@ fun () ->
  Mutex.lock entry.Server.Cache.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock entry.Server.Cache.lock)
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
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  match
    Server.Engine.run ~memo:(Server.Cache.memo entry) ppf compiled
      ~opts:Server.Engine.default ~specs:(Option.to_list extra_spec)
      ~cancel:(Atomic.make false) ~debug:false
      ~prepare:(fun () -> ignore (Kripke.reachable m))
  with
  | Error msg -> failwith ("E14: " ^ msg)
  | Ok ((), o) ->
    Format.pp_print_flush ppf ();
    let after = Bdd.stats m.Kripke.man in
    Server.Cache.after_request cache entry;
    ( List.map (fun (_, r) -> r.Server.Engine.verdict) o.Server.Engine.verdicts,
      warm,
      (Bdd.diff_stats after before).Bdd.total_nodes,
      Buffer.contents buf )

let sweep ~workload ~extra_spec src rows =
  let cache = Server.Cache.create ~capacity:4 in
  let run ?extra_spec () =
    Harness.time_once (fun () -> request cache ~source:src ?extra_spec ())
  in
  let (cold_verdicts, cold_warm, cold_nodes, cold_out), t_cold = run () in
  Ctl.Check.reset_fixpoint_stats ();
  let (warm_verdicts, warm_warm, warm_nodes, warm_out), t_warm = run () in
  let warm_eu = (Ctl.Check.fixpoint_stats ()).Ctl.Check.eu_iterations in
  let (_, _, spec_nodes, _), t_spec = run ~extra_spec () in
  if cold_warm then failwith ("E14: first request claimed warm on " ^ workload);
  if not warm_warm then
    failwith ("E14: repeat request stayed cold on " ^ workload);
  if cold_verdicts <> warm_verdicts || cold_out <> warm_out then
    failwith ("E14: warm reuse changed the output on " ^ workload);
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
      ("warm_eu_iterations", Harness.Int warm_eu);
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
        string_of_int warm_eu;
      ];
    ]

(* [source] with its SPEC lines replaced by [specs]. *)
let with_specs source specs =
  String.split_on_char '\n' source
  |> List.filter (fun l -> not (String.starts_with ~prefix:"SPEC " l))
  |> String.concat "\n"
  |> fun s -> s ^ String.concat "" (List.map (Printf.sprintf "SPEC %s\n") specs)

(* serve-mix's seven models (perfbench/workloads.py SERVE_MODELS), each
   with three fixed extra formulas in the shape of serve-mix's
   candidates (its templates over the model's atoms). *)
let serve_models () =
  let committed name =
    In_channel.with_open_bin (Filename.concat "examples/models" name)
      In_channel.input_all
  in
  [ ( committed "mutex.smv",
      [ "EF (p = crit & q = try)"; "AG (p = try -> AF p = crit)";
        "AG (q = try -> EX q = crit)" ] );
    ( committed "philosophers.smv",
      [ "EF (p0.eating & p2.eating)"; "AG (p0.st = hungry -> AF p0.eating)";
        "AG !(p1.eating & p2.eating)" ] );
    ( committed "cache.smv",
      [ "EF (c0 = owned & op = rd1)"; "AG (c0 = shared -> AF c1 = owned)";
        "AG !(c0 = owned & c1 = shared)" ] );
    ( committed "ring.smv",
      [ "EF (g1.out & !g3.out)"; "AG (g1.out -> AF g2.out)";
        "AG (g2.out -> EX g3.out)" ] );
    ( with_specs (Workloads.arbiter_smv 6)
        [ "AG !(ack0 & ack1)"; "AG (req2 -> AF ack2)"; "EF (req3 & ack3)" ],
      [ "EF (req1 & ack4)"; "AG (req0 -> AF ack0)"; "AG !(ack2 & ack5)" ] );
    ( with_specs (Exp_overhead.philosophers 5)
        [ "AG !(p0.eating & p1.eating)"; "AG (p2.st = hungry -> AF p2.eating)";
          "EF p4.eating" ],
      [ "EF (p1.eating & p3.eating)"; "AG (p1.st = hungry -> AF p1.eating)";
        "AG (p0.eating -> EX p4.st = hungry)" ] );
    ( with_specs (Workloads.counter_smv 8)
        [ "EF (b7 & b6 & b0)"; "AG (b0 -> EF !b0)"; "AG EF !b7" ],
      [ "EF (b3 & !b0)"; "AG (b1 -> AF b2)"; "AG (b5 -> EX !b7)" ] ) ]

let median times =
  let sorted = List.sort Float.compare times in
  List.nth sorted (List.length sorted / 2)

(* The pool under serve-mix's pressure: [requests] draws of a model,
   drawn uniformly; 15% of them are a one-off edit of its source
   (always cold), 20% add one of its fixed extra formulas (newspec),
   the rest repeat its source.  With [shift_every = n] the hot set
   moves: every n-th draw replaces the next of the seven by an edited
   version (the old one is never asked for again).  Returns the warm
   hit ratio of the repeat and newspec requests, then the median and
   the mean latency of the repeats, and the mean over the models of
   each one's repeat median: a pooled median is mostly the cheap
   models' repeats, while a costly model's repeats are what an
   eviction of its memo slows; the mean is the repeats' total time. *)
let churn ?shift_every ~requests () =
  let models = Array.of_list (serve_models ()) in
  let cache = Server.Cache.create ~capacity:6 in
  Array.iter (fun (source, _) -> ignore (request cache ~source ())) models;
  let rng = Harness.rng 14 in
  let hits = ref 0 and asked = ref 0 in
  let times = Array.make (Array.length models) [] in
  for k = 1 to requests do
    (match shift_every with
    | Some n when k mod n = 0 ->
      let i = k / n mod Array.length models in
      let source, extra = models.(i) in
      models.(i) <- (Printf.sprintf "%s-- version %d\n" source k, extra)
    | _ -> ());
    let i = Random.State.int rng (Array.length models) in
    let source, extra = models.(i) in
    let draw = Random.State.float rng 1.0 in
    if draw < 0.15 then
      ignore
        (request cache ~source:(Printf.sprintf "%s-- edit %d\n" source k) ())
    else begin
      let extra_spec =
        if draw < 0.35 then
          Some (List.nth extra (Random.State.int rng (List.length extra)))
        else None
      in
      let (_, warm, _, _), t =
        Harness.time_once (request cache ~source ?extra_spec)
      in
      incr asked;
      if warm then incr hits;
      if extra_spec = None then times.(i) <- t :: times.(i)
    end
  done;
  let per_model = List.filter (( <> ) []) (Array.to_list times) in
  let mean ts = List.fold_left ( +. ) 0. ts /. float_of_int (List.length ts) in
  ( float_of_int !hits /. float_of_int (max 1 !asked),
    median (List.concat per_model),
    mean (List.concat per_model),
    mean (List.map median per_model) )

(* One one-shot input checked as the CLI does under --certify (and
   [step_limit]), on a fresh compile whose op caches are capped at [cap]
   entries: the check's op-cache misses and wall time. *)
let capped_check ~cap (source, step_limit) =
  let compiled = Smv.load_string source in
  let man = compiled.Smv.Compile.model.Kripke.man in
  if cap <> Bdd.cache_hard_cap then Bdd.set_cache_limit man (Some cap);
  let before = Bdd.stats man in
  let ppf = Format.formatter_of_buffer (Buffer.create 4096) in
  let (), t =
    Harness.time_once (fun () ->
        match
          Server.Engine.run ppf compiled
            ~opts:{ Server.Engine.default with certify = true; step_limit }
            ~specs:[] ~cancel:(Atomic.make false) ~debug:false
            ~prepare:ignore
        with
        | Ok _ -> ()
        | Error msg -> failwith ("E14: " ^ msg))
  in
  (Bdd.cache_misses (Bdd.diff_stats (Bdd.stats man) before), t)

let counter_value bits v =
  String.concat " & "
    (List.init bits (fun i ->
         (if (v lsr i) land 1 = 1 then "" else "!") ^ Printf.sprintf "b%d" i))

(* perfbench's one-shot inputs (seed-independent spec sets, in a fixed
   order), two larger siblings and the largest committed model, whose
   first spec runs 10^5 EF iterations before its step budget trips. *)
let cap_inputs ~full =
  let unbudgeted = List.map (fun (name, source) -> (name, (source, None))) in
  unbudgeted
  [ ( "witness-deep (counter-10)",
      with_specs (Workloads.counter_smv 10)
        [ Printf.sprintf "EF (%s)" (counter_value 10 959);
          Printf.sprintf "EF (%s)" (counter_value 10 1021);
          "AG (b0 -> EF !b0)" ] );
    ( "verdict-wide (arbiter-8)",
      with_specs (Workloads.arbiter_smv 8)
        (List.concat
           (List.init 8 (fun k ->
                [ Printf.sprintf "AG !(ack%d & ack%d)" k ((k + 1) mod 8);
                  Printf.sprintf "AG (req%d -> AF ack%d)" k k ]))) );
    ("fair-lasso (philosophers-6)", Exp_overhead.philosophers 6) ]
  @
  if full then
    unbudgeted
      [ ("counter-14", Workloads.counter_smv 14);
        ("philosophers-8", Exp_overhead.philosophers 8) ]
    @ [ ( "counter26 (--step-limit 100000)",
          ( In_channel.with_open_bin "examples/models/counter26.smv"
              In_channel.input_all,
            Some 100_000 ) ) ]
  else []

let run ~full =
  let arb_users = if full then 10 else 8 in
  let ctr_bits = if full then 14 else 12 in
  let rows =
    sweep
      ~workload:(Printf.sprintf "arbiter%d" arb_users)
      ~extra_spec:"AG (req2 -> AF ack2)"
      (Workloads.arbiter_smv arb_users)
      []
  in
  let rows =
    sweep
      ~workload:(Printf.sprintf "counter%d" ctr_bits)
      ~extra_spec:"AG EF (!b0 & !b1)"
      (Workloads.counter_smv ctr_bits)
      rows
  in
  Harness.print_table
    ~title:
      "E14: check-server reuse — cold vs warm request latency (identical \
       output enforced)"
    ~header:
      [ "workload"; "cold"; "warm"; "speedup"; "warm+spec"; "nodes cold";
        "nodes warm"; "EU iters warm" ]
    rows;
  Harness.note
    "cold: compile + reachable fixpoint + all specs on a fresh manager —";
  Harness.note
    "what every one-shot CLI run pays.  warm: the identical repeat request";
  Harness.note
    "against the server's cache — the memoised reachable set and the";
  Harness.note
    "entry's fixpoint memo leave zero new nodes and no EU fixpoint to run.";
  Harness.note
    "warm+spec: same model, new property — only its new fixpoints run.";
  let requests = if full then 1000 else 300 in
  let churn_rows =
    List.map
      (fun (workload, shift_every) ->
        let hit_ratio, warm_p50, warm_mean, model_p50 =
          churn ?shift_every ~requests ()
        in
        Harness.emit_json ~experiment:"E14"
          [
            ("workload", Harness.String workload);
            ("models", Harness.Int 7);
            ("capacity", Harness.Int 6);
            ("one_off_share", Harness.Float 0.15);
            ("newspec_share", Harness.Float 0.20);
            ("shift_every", Harness.Int (Option.value shift_every ~default:0));
            ("requests", Harness.Int requests);
            ("warm_hit_ratio", Harness.Float hit_ratio);
            ("repeat_p50_s", Harness.Float warm_p50);
            ("repeat_mean_s", Harness.Float warm_mean);
            ("model_repeat_p50_mean_s", Harness.Float model_p50);
          ];
        [
          workload;
          string_of_int requests;
          Printf.sprintf "%.2f" hit_ratio;
          Harness.seconds_string warm_p50;
          Harness.seconds_string warm_mean;
          Harness.seconds_string model_p50;
        ])
      [ ("churn7", None); ("churn7-shift", Some (requests / 10)) ]
  in
  Harness.print_table
    ~title:
      "E14: pool churn — serve-mix's 7 models, capacity 6, 15% one-off \
       sources, 20% newspec (churn7-shift: one model replaced every \
       tenth of the run)"
    ~header:
      [ "workload"; "requests"; "warm hit ratio"; "repeat p50";
        "repeat mean"; "mean model repeat p50" ]
    churn_rows;
  let caps = [ Bdd.cache_hard_cap; 1 lsl 18 ] in
  let cap_rows =
    List.map
      (fun (workload, source) ->
        (* Alternate the two caps, three runs each; keep each cap's
           fastest run (the misses do not vary). *)
        let runs =
          List.concat_map
            (fun _ -> List.map (fun cap -> (cap, capped_check ~cap source)) caps)
            [ 1; 2; 3 ]
        in
        let best cap =
          List.fold_left
            (fun (m, t) (c, (m', t')) ->
              if c = cap then (m', Float.min t t') else (m, t))
            (0, infinity) runs
        in
        let (m14, t14), (m18, t18) =
          (best Bdd.cache_hard_cap, best (1 lsl 18))
        in
        let miss_delta = float_of_int (m14 - m18) /. float_of_int (max 1 m18) in
        Harness.emit_json ~experiment:"E14"
          [
            ("workload", Harness.String workload);
            ("cap_entries", Harness.Int Bdd.cache_hard_cap);
            ("misses", Harness.Int m14);
            ("check_s", Harness.Float t14);
            ("former_cap_entries", Harness.Int (1 lsl 18));
            ("former_cap_misses", Harness.Int m18);
            ("former_cap_check_s", Harness.Float t18);
            ("miss_delta", Harness.Float miss_delta);
          ];
        [
          workload;
          string_of_int m14;
          string_of_int m18;
          Printf.sprintf "%+.2f%%" (100. *. miss_delta);
          Harness.seconds_string t14;
          Harness.seconds_string t18;
        ])
      (cap_inputs ~full)
  in
  Harness.print_table
    ~title:"E14: op-cache cap — 2^14 entries vs the former 2^18 (--certify)"
    ~header:
      [ "input"; "misses 2^14"; "misses 2^18"; "delta"; "check 2^14";
        "check 2^18" ]
    cap_rows

let bechamel =
  let cache = lazy (Server.Cache.create ~capacity:2) in
  let src = lazy (Workloads.arbiter_smv 6) in
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
    Option.get
      (Pool.try_submit pool (fun () ->
           while not (Atomic.get gate) do
             Domain.cpu_relax ()
           done))
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
  let src = Workloads.arbiter_smv users in
  let cache = Server.Cache.create ~capacity:2 in
  ignore (request cache ~source:src ());
  let key = Server.Cache.digest ~source:src in
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
  let src = Workloads.arbiter_smv users in
  (* Pre-crash: one cold request warms the pool entry (this is also
     the cold-recheck baseline), then a persist write snapshots it. *)
  let cache = Server.Cache.create ~capacity:2 in
  let (cold_verdicts, _, _, _), t_cold =
    Harness.time_once (fun () -> request cache ~source:src ())
  in
  let key = Server.Cache.digest ~source:src in
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
  if not (Server.Cache.seed cache2 ~key ~uses:1 ~compiled:restored) then
    failwith "E17: rehydrated entry not seeded";
  let (warm_verdicts, was_warm, warm_nodes, _), t_first =
    Harness.time_once (fun () -> request cache2 ~source:src ())
  in
  if not was_warm then failwith "E17: rehydrated request stayed cold";
  if warm_nodes <> 0 then
    failwith
      (Printf.sprintf "E17: rehydrated request allocated %d nodes" warm_nodes);
  if warm_verdicts <> cold_verdicts then
    failwith "E17: rehydration changed a verdict";
  Array.iter
    (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
    (Sys.readdir dir);
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
       let src = Workloads.arbiter_smv 6 in
       ignore (request cache ~source:src ());
       let key = Server.Cache.digest ~source:src in
       let entry, _ = Server.Cache.acquire cache ~key in
       let compiled = Option.get entry.Server.Cache.compiled in
       compiled.Smv.Compile.model.Kripke.man)
  in
  Bechamel.Test.make ~name:"e17-arbiter6-snapshot-dump"
    (Bechamel.Staged.stage (fun () ->
         ignore (Bdd.Snapshot.dump (Lazy.force man) : string)))
