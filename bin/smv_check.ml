(* smv_check — a command-line symbolic model checker in the style of
   SMV: parse a model, check every SPEC (plus any --spec formulas),
   print verdicts and, for failed universal / satisfied existential
   specifications, an execution trace (Section 6).

   Exit codes: 0 every specification holds; 1 at least one is false
   (and none undetermined); 2 a resource limit tripped, a specification
   was left undetermined, or the run was interrupted; 3 input error,
   internal failure, or a trace that failed certification.

   Recovery: with --retries N a breached / out-of-memory / crashed
   specification is re-attempted up to N times through the
   Robust.Ladder rungs (gc-retry, a sifting sweep, degraded
   representation, explicit-state fallback), each attempt under
   exponentially backed-off budgets; with --retries 0 (the default) behaviour —
   output bytes included — is identical to the pre-recovery checker.

   Everything between "model compiled" and "reports in hand" is
   Server.Engine.run, the driver the --serve request loop calls too, so
   both print the same bytes; this file keeps the flags, the file
   loading, and the --stats / --simulate output around it. *)

module Engine = Server.Engine

let ( let* ) = Result.bind

(* --------------------------------------------------------------- *)
(* SIGINT (one-shot mode): set the shared cancel flag.  Every per-spec
   Limits bundle — sequential or on a worker domain — is created with
   this flag, so one atomic store cancels them all: the next poll point
   inside each running BDD operation raises, the in-flight specs are
   reported UNDETERMINED, queued specs are skipped, and the run exits
   cleanly with code 2.  The recovery ladder checks the same flag
   between attempts, so Ctrl-C also means "no more retries".

   Serve mode deliberately does NOT use this flag: there SIGINT means
   "drain and exit" and each request has a private cancel atomic
   (Server.Daemon installs its own handlers). *)

let cancel_flag : bool Atomic.t = Atomic.make false

let install_sigint () =
  match
    Sys.set_signal Sys.sigint
      (Sys.Signal_handle (fun _ -> Atomic.set cancel_flag true))
  with
  | () -> ()
  | exception (Invalid_argument _ | Sys_error _) ->
    (* no signal support on this platform: run ungoverned *)
    ()

let print_model_stats ?limits m =
  let reachable = Kripke.reachable ?limits m in
  Format.printf "model: %d state bits, %.0f states in the state space, %.0f reachable@."
    m.Kripke.nbits
    (Kripke.count_states m m.Kripke.space)
    (Kripke.count_states m reachable);
  let dead = Kripke.deadlocks m in
  if not (Bdd.is_zero dead) then
    Format.printf
      "warning: %.0f deadlocked states (CTL semantics assumes a total relation)@."
      (Kripke.count_states m dead)

(* The post-run half of --stats: BDD manager counters and fixpoint
   iteration counts accumulated while checking.  [extra] carries the
   per-worker manager snapshots of a parallel run, merged into the main
   manager's counters so --stats reports one totalled view of the whole
   run regardless of --jobs. *)
let print_run_stats ?(extra = []) m =
  let s = List.fold_left Bdd.merge_stats (Bdd.stats m.Kripke.man) extra in
  Format.printf "%a@." Bdd.pp_stats s;
  let c = Ctl.Check.fixpoint_stats () in
  let f = Ctl.Fair.fixpoint_stats () in
  Format.printf
    "fixpoints: %d EU iterations, %d EG iterations, %d ring layers@."
    c.Ctl.Check.eu_iterations c.Ctl.Check.eg_iterations
    c.Ctl.Check.ring_layers;
  Format.printf
    "fair fixpoints: %d outer iterations, %d ring layers saved@."
    f.Ctl.Fair.outer_iterations f.Ctl.Fair.ring_layers

(* Random walk from a random initial state, choosing uniformly at each
   step with symbolic cofactor-weighted sampling — no state
   enumeration, so arbitrarily large models are safe to explore. *)
let simulate m ~steps ~seed =
  let rng = Random.State.make [| seed |] in
  let pick set = Kripke.pick_random_state m ~rng set in
  match pick m.Kripke.init with
  | None -> Format.printf "no initial state@."
  | Some st ->
    let rec walk acc st k =
      if k = 0 then List.rev acc
      else
        match pick (Kripke.post m (Kripke.state_to_bdd m st)) with
        | None -> List.rev acc (* deadlock *)
        | Some st' -> walk (st' :: acc) st' (k - 1)
    in
    let tr = Kripke.Trace.finite (walk [ st ] st steps) in
    Format.printf "-- random simulation (%d steps, seed %d)@." steps seed;
    Format.printf "%a@." (Kripke.Trace.pp m) tr

(* One validator for every flag, one-shot and --serve alike (the check
   flags go unused by --serve, but a bad value is still an input
   error).  Returns the check options with --inject parsed, plus the
   child-crash count that only --serve accepts. *)
let validate ~serve ~jobs ~seed ~cache_limit ~simulate ~inject check =
  let nonpositive = function Some n -> n <= 0 | None -> false in
  let* () =
    if nonpositive cache_limit then Error "--cache-limit: N must be positive"
    else Ok ()
  in
  let* () =
    if nonpositive simulate then Error "--simulate: STEPS must be positive"
    else Ok ()
  in
  let* inject =
    match inject with
    | None -> Ok None
    | Some s -> Result.map Option.some (Engine.parse_inject ~seed s)
  in
  let crash_after, inject =
    match inject with
    | Some (Engine.Child_crash k) when serve -> (Some k, None)
    | _ -> (None, inject)
  in
  let check = { check with Engine.inject } in
  let* () = Engine.validate ~jobs check in
  if jobs < 0 then Error "--jobs: N must be >= 0 (0 means all cores)"
  else Ok (check, crash_after)

(* Returns Ok (exit code) or Error message (input error, exit 3). *)
let run ~check ~extra_specs ~cache_limit ~simulate:walk ~seed ~jobs ~debug
    file =
  let* compiled =
    Engine.compile ~source:file (fun () ->
        Smv.load_file ~partitioned:check.Engine.partitioned
          ~static_order:(check.Engine.reorder = `Static)
          file)
  in
  let m = compiled.Smv.Compile.model in
  let prepare () =
    Option.iter
      (fun n -> Bdd.set_cache_limit m.Kripke.man (Some n))
      cache_limit;
    if check.Engine.stats then print_model_stats m;
    Option.iter (fun steps -> simulate m ~steps ~seed) walk
  in
  let* (), outcome =
    Engine.run Format.std_formatter compiled ~opts:check ~specs:extra_specs
      ~cancel:cancel_flag ~debug ~jobs ~prepare
  in
  let interrupted = Atomic.get cancel_flag in
  if interrupted then Format.printf "-- interrupted; statistics so far:@.";
  if interrupted || check.Engine.stats then
    print_run_stats ~extra:outcome.Engine.worker_stats m;
  Ok outcome.Engine.exit_code

open Cmdliner

let file_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"MODEL.smv"
        ~doc:"SMV model to check (required except with $(b,--serve)).")

let spec_arg =
  Arg.(
    value & opt_all string []
    & info [ "s"; "spec" ] ~docv:"FORMULA"
        ~doc:"Additional CTL specification to check (repeatable).")

let cache_limit_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cache-limit" ] ~docv:"N"
        ~doc:
          "Bound every BDD operation cache to N entries; a cache that \
           grows past the bound is dropped and rebuilt (results are \
           unchanged, memory is bounded).")

let simulate_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "simulate" ] ~docv:"STEPS"
        ~doc:"Print a random execution of the given length before checking.")

let seed_arg =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~docv:"N"
        ~doc:"Random seed for --simulate and --inject SITE:rand.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Check specifications on N worker domains in parallel (0 \
           means one per core).  Each worker clones the model into a \
           private BDD manager, so verdicts, traces and exit code are \
           byte-identical to a sequential run.  With $(b,--serve): the \
           number of request-processing workers.")

let inject_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject" ] ~docv:"SITE:COUNT"
        ~doc:
          "Chaos testing: deterministically fail the COUNT-th visit to \
           SITE (mk, probe, gc, step or reorder — raising the same \
           errors real resource exhaustion would) or kill the worker \
           domain that picks up the COUNT-th task (worker, needs \
           --jobs >= 2).  COUNT may be 'rand' (seeded by --seed).  \
           Combine with --retries to exercise the recovery ladder.")

let debug_arg =
  Arg.(
    value & flag
    & info [ "debug" ]
        ~doc:
          "Developer mode: record exception backtraces and let \
           unexpected exceptions crash with a full trace instead of \
           being condensed to one-line diagnostics.")

let serve_arg =
  Arg.(
    value & flag
    & info [ "serve" ]
        ~doc:
          "Run as a check server: accept framed JSON check requests on \
           stdin/stdout (or $(b,--socket)) and keep compiled models \
           warm between requests — hot operation caches, variable \
           orders and memoised reachable sets are reused when only the \
           specification changes.  Each request runs under \
           its own budgets and cancellation flag; SIGINT drains \
           in-flight requests and exits.")

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "With $(b,--serve): listen on a Unix-domain socket at PATH \
           (accepting any number of concurrent client connections) \
           instead of serving a single session on stdin/stdout.")

let cache_models_arg =
  Arg.(
    value & opt int 8
    & info [ "cache-models" ] ~docv:"N"
        ~doc:
          "With $(b,--serve): keep up to N compiled models warm; the \
           least recently used idle model is evicted beyond that.")

let max_pending_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-pending" ] ~docv:"N"
        ~doc:
          "With $(b,--serve): admit at most N queued (not yet running) \
           checks; past the bound a check is refused immediately with \
           a structured 'overloaded' reply carrying a retry_after_ms \
           hint.  Default: unbounded.")

let max_inflight_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-inflight" ] ~docv:"N"
        ~doc:
          "With $(b,--serve): cap one connection at N concurrent \
           checks (queued or running); further checks on that \
           connection are refused with an 'overloaded' reply.  \
           Default: uncapped.")

let default_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "default-timeout" ] ~docv:"SECONDS"
        ~doc:
          "With $(b,--serve): apply this timeout to requests that name \
           none.  A request's own timeout always wins (subject to \
           $(b,--max-timeout)).")

let default_node_limit_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "default-node-limit" ] ~docv:"N"
        ~doc:
          "With $(b,--serve): apply this live-node budget to requests \
           that name none.  A request's own node_limit always wins.")

let max_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "max-timeout" ] ~docv:"SECONDS"
        ~doc:
          "With $(b,--serve): clamp every request's timeout — its own \
           or the default — to this ceiling, so no single request can \
           hold a worker forever.")

let mem_high_water_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "mem-high-water" ] ~docv:"NODES"
        ~doc:
          "With $(b,--serve): arm the memory watchdog.  When the warm \
           pool's total live BDD nodes exceed NODES, the server evicts \
           idle models, then clamps idle operation caches, and as a \
           last resort refuses checks of models that are not already \
           warm (warm models, pings and status probes are still \
           served).  Default: off.")

let supervise_arg =
  Arg.(
    value & flag
    & info [ "supervise" ]
        ~doc:
          "With $(b,--serve --socket): run the serve loop as a \
           supervised child process.  The parent binds the socket \
           once, holds the listening descriptor across restarts (so \
           clients connecting during a restart queue instead of being \
           refused), and restarts a crashed child with exponential \
           backoff and jitter; a crash loop (5 crashes within 30s by \
           default) trips a circuit breaker and exits with a report.  \
           Pairs with $(b,--state-dir), which lets the replacement \
           child rehydrate the crashed child's warm state.")

let state_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "state-dir" ] ~docv:"DIR"
        ~doc:
          "With $(b,--serve): persist warm-model snapshots under DIR.  \
           Idle compiled models are snapshotted (checksummed, written \
           atomically) on the server's low-pressure watchdog ticks and \
           on graceful shutdown, and rehydrated at startup, so a \
           restarted server answers its first checks warm instead of \
           recompiling; corrupt or stale snapshot files are \
           quarantined (renamed $(i,*.quarantined)) and counted, never \
           fatal.  Default: off.")

let status_arg =
  Arg.(
    value & flag
    & info [ "status" ]
        ~doc:
          "Probe a running server: connect to $(b,--socket) PATH, send \
           one status request, print the JSON reply (uptime, queue \
           depth, shed and watchdog counters, per-model cache \
           occupancy, worker state) and exit.")

let main file extra_specs check cache_limit simulate seed jobs inject debug
    serve socket cache_models max_pending max_inflight default_timeout
    default_node_limit max_timeout mem_high_water supervise state_dir status =
  Printexc.record_backtrace debug;
  if status then begin
    match socket with
    | Some path -> Server.Daemon.status_client ~socket:path
    | None ->
      Format.eprintf "smv_check --status: --socket PATH is required@.";
      3
  end
  else
    (* Resolve --jobs 0 first: "worker:N" must see the real count. *)
    let jobs = if jobs = 0 then Parallel.default_jobs () else jobs in
    match
      validate ~serve ~jobs ~seed ~cache_limit ~simulate ~inject check
    with
    | Error msg ->
      Format.eprintf "%s@." msg;
      3
    | Ok (check, crash_after) -> (
      if serve then begin
        if file <> None then
          Format.eprintf "warning: MODEL.smv argument is ignored with --serve@.";
        (* Per-request check options travel in the requests; the only
           CLI-level injection site here is the supervision fault
           [child-crash:K]. *)
        let dcfg =
          {
            Server.Daemon.socket; jobs; capacity = cache_models; debug;
            max_pending; max_inflight; default_timeout; default_node_limit;
            max_timeout; mem_high_water; state_dir; crash_after;
            restarts = 0;
          }
        in
        if supervise then Server.Supervise.run dcfg
        else Server.Daemon.serve dcfg
      end
      else
        match file with
        | None ->
          Format.eprintf "smv_check: required MODEL.smv argument is missing@.";
          3
        | Some f -> (
          install_sigint ();
          match
            run ~check ~extra_specs ~cache_limit ~simulate ~seed ~jobs ~debug f
          with
          | Ok code -> code
          | Error msg ->
            Format.eprintf "%s@." msg;
            3
          | exception e when not debug ->
            (* Crash guard: anything unexpected outside the per-spec
               isolation becomes a one-line diagnostic. *)
            Format.eprintf "smv_check: internal error on %s: %s@." f
              (Printexc.to_string e);
            3))

let cmd =
  let doc = "symbolic CTL model checker with counterexample generation" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Checks every SPEC of an SMV model with the BDD-based symbolic \
         algorithm of Clarke, Grumberg, McMillan and Zhao, honouring \
         FAIRNESS constraints, and prints a counterexample execution \
         trace (a finite path, or a path followed by a repeating cycle) \
         for every failed specification.";
      `P
        "Resource governance: $(b,--timeout), $(b,--node-limit) and \
         $(b,--step-limit) bound each specification separately; a spec \
         that exceeds a budget is reported UNDETERMINED and the \
         remaining specs are still checked.  SIGINT finishes the \
         current BDD operation, prints statistics so far, and exits \
         cleanly.";
      `P
        "Recovery: $(b,--retries N) climbs a remediation ladder instead \
         of giving up — garbage collection and backed-off budgets \
         first, then a partitioned relation with tight caches, finally \
         an explicit-state re-check when the state space is small.  \
         Recovered verdicts are annotated on the verdict line and \
         their traces are always certified ($(b,--certify)).  \
         $(b,--inject) plants deterministic faults to exercise every \
         rung in CI.";
      `P
        "Variable order: $(b,--reorder static) seeds a dependency-aware \
         static order at compile time instead of declaration order.  \
         Orders only change sizes and times — never verdicts, traces or \
         exit codes.";
      `P
        "Parallelism: $(b,--jobs N) checks specifications on N worker \
         domains, each with a private clone of the model in its own \
         BDD manager (shared-nothing, no locks on the BDD hot paths).  \
         Output order, traces and the exit code are byte-identical to \
         a sequential run.  A crashed worker is respawned, and with \
         $(b,--retries) its specification is re-checked on the main \
         domain.";
      `P
        "Server mode: $(b,--serve) turns the checker into a long-lived \
         daemon speaking length-prefixed JSON frames on stdin/stdout \
         or a Unix socket ($(b,--socket)).  Compiled models stay warm \
         in an LRU pool ($(b,--cache-models)), so repeat checks skip \
         compilation, BDD construction and the reachability fixpoint.  \
         Every reply carries the verdicts, the one-shot CLI's exact \
         output text, and per-request statistics; a request that trips \
         a budget or an injected fault is answered UNDETERMINED while \
         the server and its other requests continue untouched.";
      `P
        "Server overload protection (all off by default): \
         $(b,--max-pending) and $(b,--max-inflight) shed excess checks \
         immediately with structured 'overloaded' replies instead of \
         queueing without bound; $(b,--default-timeout), \
         $(b,--default-node-limit) and $(b,--max-timeout) impose \
         server-side budgets on unbudgeted requests; \
         $(b,--mem-high-water) arms a memory watchdog that sheds \
         cache warmth under pressure (evict idle models, clamp idle \
         caches, refuse cold models) and recovers when pressure \
         clears.  $(b,--status) probes a running server's health from \
         the command line.";
      `P
        "Crash-only operation: $(b,--supervise) forks the serve loop \
         under a restarting parent that holds the listening socket \
         across crashes, and $(b,--state-dir) persists checksummed \
         warm-model snapshots so a restarted server rehydrates its \
         pool instead of recompiling — together they make a SIGKILL \
         at any moment cost one restart latency, not the accumulated \
         warmth.";
      `S Manpage.s_examples;
      `P "smv_check examples/models/mutex.smv";
      `P "smv_check --spec 'AG (tr1 -> AF ta1)' arbiter.smv";
      `P "smv_check --timeout 5 --node-limit 2000000 big_model.smv";
      `P "smv_check --step-limit 100 --retries 2 --certify counter.smv";
      `P "smv_check --inject mk:5000 --retries 1 --stats model.smv";
      `P "smv_check --serve --socket /tmp/smv.sock --jobs 4";
      `P
        "smv_check --serve --socket /tmp/smv.sock --max-pending 32 \
         --max-timeout 30 --mem-high-water 5000000";
      `P
        "smv_check --serve --socket /tmp/smv.sock --supervise \
         --state-dir /var/lib/smv_check";
      `P "smv_check --status --socket /tmp/smv.sock";
    ]
  in
  (* The program's own exit codes, the only list --help prints:
     cmdliner's parse and term errors are mapped onto 3 below. *)
  let exits =
    [
      Cmd.Exit.info 0 ~doc:"every specification holds.";
      Cmd.Exit.info 1
        ~doc:"at least one specification is false (none undetermined).";
      Cmd.Exit.info 2
        ~doc:
          "a resource limit tripped, some verdict is undetermined, or the \
           run was interrupted.";
      Cmd.Exit.info 3
        ~doc:
          "input error (unreadable or invalid model, bad flags), internal \
           failure, or an emitted trace failed $(b,--certify) validation.";
    ]
  in
  Cmd.v
    (Cmd.info "smv_check" ~version:"1.0.0" ~doc ~man ~exits)
    Term.(
      const main $ file_arg $ spec_arg $ Check_flags.term $ cache_limit_arg
      $ simulate_arg $ seed_arg $ jobs_arg $ inject_arg $ debug_arg
      $ serve_arg $ socket_arg $ cache_models_arg $ max_pending_arg
      $ max_inflight_arg $ default_timeout_arg $ default_node_limit_arg
      $ max_timeout_arg $ mem_high_water_arg $ supervise_arg
      $ state_dir_arg $ status_arg)

let () =
  exit
    (match Cmd.eval_value cmd with
    | Ok (`Ok code) -> code
    | Ok (`Help | `Version) -> 0
    | Error (`Parse | `Term | `Exn) -> 3)
