(* The checking engine shared by the one-shot CLI and the check
   server: the options record, the per-spec checker and the driver
   both front ends call.  See the interface for the contract. *)

let ( let* ) = Result.bind

type verdict = Holds | Fails | Undetermined of string
type report = { verdict : verdict; cert_failed : bool }

type inject =
  | Fault of Bdd.Fault.site * int
  | Worker_crash of int
  | Child_crash of int

type options = {
  fair : bool;
  traces : bool;
  stats : bool;
  certify : bool;
  partitioned : bool;
  retries : int;
  timeout : float option;
  node_limit : int option;
  step_limit : int option;
  inject : inject option;
  reorder : [ `None | `Static ];
}

let default =
  {
    fair = true;
    traces = true;
    stats = false;
    certify = false;
    partitioned = false;
    retries = 0;
    timeout = None;
    node_limit = None;
    step_limit = None;
    inject = None;
    reorder = `None;
  }

(* Retry k scales node/step budgets by [retry_factor]^(k-1). *)
let retry_factor = 2.0

let parse_inject ?(seed = 0) s =
  match String.index_opt s ':' with
  | None ->
    Error "--inject: expected SITE:COUNT (e.g. mk:1000, step:3, worker:1)"
  | Some i -> (
    let site = String.sub s 0 i in
    let count = String.sub s (i + 1) (String.length s - i - 1) in
    let* n =
      if count = "rand" then
        (* Seeded so chaos runs are reproducible: same seed, same
           injection point. *)
        let rng = Random.State.make [| seed; 0x1aB2 |] in
        Ok (1 + Random.State.int rng 4096)
      else
        match int_of_string_opt count with
        | Some n when n >= 1 -> Ok n
        | Some _ | None ->
          Error "--inject: COUNT must be a positive integer or 'rand'"
    in
    match (site, Bdd.Fault.site_of_string site) with
    | _, Some fs -> Ok (Fault (fs, n))
    | "worker", None -> Ok (Worker_crash n)
    | "child-crash", None -> Ok (Child_crash n)
    | _, None ->
      Error
        (Printf.sprintf
           "--inject: unknown site %S (expected mk, probe, gc, step, \
            reorder, worker or child-crash)"
           site))

let validate ~jobs o =
  let nonpositive = function Some n -> n <= 0 | None -> false in
  let problems =
    [
      ( (match o.timeout with Some t -> t <= 0.0 | None -> false),
        "--timeout: SECS must be positive" );
      (nonpositive o.node_limit, "--node-limit: N must be positive");
      (nonpositive o.step_limit, "--step-limit: N must be positive");
      (o.retries < 0, "--retries: N must be >= 0");
      ( (match o.inject with Some (Worker_crash _) -> jobs < 2 | _ -> false),
        "--inject worker:N requires a parallel run (--jobs >= 2)" );
      ( (match o.inject with Some (Child_crash _) -> true | _ -> false),
        "--inject child-crash:K is only valid with --serve" );
    ]
  in
  match List.find_opt fst problems with
  | Some (_, msg) -> Error msg
  | None -> Ok ()

let compile ~source load =
  let at pos = Format.asprintf " at %a" Smv.Ast.pp_pos pos in
  match load () with
  | compiled ->
    (* The clusters must survive any ladder-triggered gc between a
       breach and the degraded rung that consumes them. *)
    let (_ : Bdd.root) =
      Bdd.add_root compiled.Smv.Compile.model.Kripke.man (fun () ->
          compiled.Smv.Compile.clusters)
    in
    Ok compiled
  | exception Sys_error msg -> Error msg
  | exception Smv.Lexer.Error (msg, pos) ->
    Error (Printf.sprintf "%s: lexical error%s: %s" source (at pos) msg)
  | exception Smv.Parser.Error (msg, pos) ->
    Error (Printf.sprintf "%s: syntax error%s: %s" source (at pos) msg)
  | exception (Smv.Compile.Error (msg, pos) | Smv.Flatten.Error (msg, pos))
    ->
    let where = match pos with Some p -> at p | None -> "" in
    Error (Printf.sprintf "%s: error%s: %s" source where msg)

let mk_limits opts ~cancel =
  Bdd.Limits.create ?timeout:opts.timeout ?node_budget:opts.node_limit
    ?step_budget:opts.step_limit ~cancel ()

let exit_code ~interrupted reports =
  let verdicts = List.map (fun r -> r.verdict) reports in
  let some_cert_failed = List.exists (fun r -> r.cert_failed) reports in
  let some_undetermined =
    List.exists (function Undetermined _ -> true | _ -> false) verdicts
  in
  let some_false = List.exists (( = ) Fails) verdicts in
  if some_cert_failed then 3
  else if interrupted || some_undetermined then 2
  else if some_false then 1
  else 0

(* The paper: a true existential specification gets a witness, a false
   universal one gets a counterexample. *)
let rec existential = function
  | Ctl.EX _ | Ctl.EF _ | Ctl.EG _ | Ctl.EU _ -> true
  | Ctl.Not f -> not (existential f)
  | Ctl.True | Ctl.False | Ctl.Atom _ | Ctl.Pred _ | Ctl.And _ | Ctl.Or _
  | Ctl.Imp _ | Ctl.Iff _ | Ctl.AX _ | Ctl.AF _ | Ctl.AG _ | Ctl.AU _ ->
    false

let describe_breach (info : Bdd.Limits.info) =
  Format.asprintf "%a" Bdd.Limits.pp_breach info.Bdd.Limits.breach

let print_breach_progress ppf (info : Bdd.Limits.info) =
  let p = info.Bdd.Limits.progress in
  Format.fprintf ppf
    "--   progress before the limit: %d fixpoint iterations, %d ring segments%s@."
    p.Bdd.Limits.iterations p.Bdd.Limits.rings
    (match p.Bdd.Limits.witness_prefix with
    | [] -> ""
    | states -> Printf.sprintf ", %d witness states" (List.length states))

(* Build — and, when [emit], print (byte-identical to the pre-recovery
   checker) — the trace for a determined verdict.  A resource breach
   here is reported as a note but keeps the verdict: the answer was
   already computed, only its explanation ran out of budget.
   [fallback] only chooses the explainer: the explicit-state bridge
   (the ladder's last rung) or the symbolic model under [limits]. *)
let trace_for ppf m ~limits ~emit ~holds ~fallback spec =
  let emitf fmt =
    if emit then Format.fprintf ppf fmt else Format.ifprintf ppf fmt
  in
  let show tr =
    emitf "-- as demonstrated by the following execution sequence@.";
    emitf "%a@." (Kripke.Trace.pp m) tr
  in
  let witness, counterexample =
    match fallback with
    | Some fb -> (Robust.Fallback.witness fb, Robust.Fallback.counterexample fb)
    | None ->
      ( Counterex.Explain.witness ~limits m,
        Counterex.Explain.counterexample ~limits m )
  in
  if holds then begin
    if not (existential spec) then None
    else
      match witness spec with
      | Some tr ->
        show tr;
        Some tr
      | None -> None
      | exception Counterex.Explain.Cannot_explain _ -> None
      | exception Bdd.Limits.Exhausted info ->
        emitf "-- (witness construction hit a resource limit: %s)@."
          (describe_breach info);
        None
  end
  else begin
    (* Counterexamples always use fair semantics when constraints are
       declared, as SMV does. *)
    match counterexample spec with
    | Some tr ->
      show tr;
      emitf "-- trace length: %d states%s@." (Kripke.Trace.length tr)
        (if Kripke.Trace.is_lasso tr then
           Printf.sprintf " (cycle of length %d)"
             (List.length tr.Kripke.Trace.cycle)
         else "");
      Some tr
    | None ->
      emitf
        "-- (no initial-state counterexample: the formula fails only under plain semantics)@.";
      None
    | exception Counterex.Explain.Cannot_explain msg ->
      emitf "-- (could not build a linear counterexample: %s)@." msg;
      None
    | exception Bdd.Limits.Exhausted info ->
      emitf "-- (counterexample construction hit a resource limit: %s)@."
        (describe_breach info);
      None
  end

(* What one ladder attempt produced: the verdict, the model it was
   decided on (the degraded rung may swap in a partitioned variant),
   the budget bundle it ran under (trace construction keeps charging
   it), and the explicit bridge when the verdict came from the
   explicit-state rung. *)
type attempt_result = {
  ar_holds : bool;
  ar_model : Kripke.t;
  ar_limits : Bdd.Limits.t;
  ar_fallback : Robust.Fallback.t option;
}

let check_one ppf m ~opts ~cancel ?(debug = false) ~clusters ?inject ?prior
    (name, spec) =
  let man = m.Kripke.man in
  (* Monotonic, not calendar, time: the retry pool arithmetic below
     must not jump when NTP steps the clock mid-spec. *)
  let spec_started = Bdd.now_monotonic () in
  let saved_cache_limit = Bdd.cache_limit man in
  let max_attempts = opts.retries + 1 in
  (* Exponential budget backoff: attempt 1 runs under exactly the base
     budgets (the --retries 0 identity); retry k multiplies node/step
     budgets by factor^(k-1) and gives the remaining share of a
     (timeout * attempts)-sized wall-clock pool. *)
  let backoff k = function
    | None -> None
    | Some n ->
      let scaled = float_of_int n *. (retry_factor ** float_of_int (k - 1)) in
      Some (if scaled >= 1e18 then max_int else int_of_float scaled)
  in
  let timeout_for k =
    match opts.timeout with
    | None -> None
    | Some t ->
      if k = 1 then Some t
      else
        let total = t *. float_of_int max_attempts in
        let elapsed = Bdd.now_monotonic () -. spec_started in
        let left = max 1 (max_attempts - k + 1) in
        Some (Float.max 0.05 ((total -. elapsed) /. float_of_int left))
  in
  let limits_for k =
    if k = 1 then mk_limits opts ~cancel
    else
      Bdd.Limits.create ?timeout:(timeout_for k)
        ?node_budget:(backoff k opts.node_limit)
        ?step_budget:(backoff k opts.step_limit) ~cancel ()
  in
  let run_symbolic model limits =
    Bdd.Limits.with_attached model.Kripke.man limits (fun () ->
        if opts.fair then Ctl.Fair.holds ~limits model spec
        else Ctl.Check.holds ~limits model spec)
  in
  (* The degraded representation, built once per spec: partitioned
     transition relation (from the compiler's clusters) when the model
     is not already partitioned. *)
  let dmodel = ref None in
  let degraded_model () =
    match !dmodel with
    | Some dm -> dm
    | None ->
      let dm =
        if Kripke.partitioned m then m
        else
          match clusters () with
          | [] -> m
          | cs -> ( try Kripke.with_partition m cs with Invalid_argument _ -> m)
      in
      dmodel := Some dm;
      dm
  in
  let attempt_fn ~attempt strategy =
    let limits = limits_for attempt in
    match strategy with
    | Robust.Ladder.Direct | Robust.Ladder.Main_domain ->
      { ar_holds = run_symbolic m limits; ar_model = m;
        ar_limits = limits; ar_fallback = None }
    | Robust.Ladder.Gc_retry ->
      (* Reclaim the breached computation's intermediate nodes and drop
         the op-caches, then re-run plainly under backed-off budgets. *)
      ignore (Bdd.gc man);
      { ar_holds = run_symbolic m limits; ar_model = m;
        ar_limits = limits; ar_fallback = None }
    | Robust.Ladder.Reorder ->
      (* Shrink the tables with a sifting sweep before giving up any
         fidelity.  The sweep runs under this attempt's limits, so a
         deadline aborts it at a swap boundary; a failure inside it
         (including an injected reorder fault) is classified by the
         ladder like any other and climbs to the next rung. *)
      Bdd.Limits.with_attached man limits (fun () -> Bdd.reorder man);
      { ar_holds = run_symbolic m limits; ar_model = m;
        ar_limits = limits; ar_fallback = None }
    | Robust.Ladder.Degraded ->
      (* Trade speed for footprint: tight op-caches plus a partitioned
         relation with early quantification. *)
      let tightened =
        match Bdd.cache_limit man with
        | Some n -> min n 8192
        | None -> 8192
      in
      Bdd.set_cache_limit man (Some tightened);
      let dm = degraded_model () in
      { ar_holds = run_symbolic dm limits; ar_model = dm;
        ar_limits = limits; ar_fallback = None }
    | Robust.Ladder.Explicit_state ->
      (* Abandon the symbolic representation: enumerate the (small)
         state space and decide explicitly.  Deadline and cancellation
         still apply (the enumeration's symbolic steps poll them);
         node/step budgets do not — they measure symbolic work. *)
      let limits =
        Bdd.Limits.create ?timeout:(timeout_for attempt) ~cancel ()
      in
      let fb =
        Bdd.Limits.with_attached man limits (fun () ->
            Robust.Fallback.build m)
      in
      {
        ar_holds = Robust.Fallback.holds fb ~fair:opts.fair spec;
        ar_model = m;
        ar_limits = limits;
        ar_fallback = Some fb;
      }
  in
  (* The spec's embedded Pred state sets live on [man] but are not
     reachable from the model's roots; a ladder gc between attempts
     (or a concurrent request's gc on a warm server) must not sweep
     them out from under the remaining attempts. *)
  let spec_preds =
    let acc = ref [] in
    ignore (Ctl.map_pred (fun b -> acc := b :: !acc; b) spec);
    !acc
  in
  (* Arm the injected fault (chaos testing) for this specification;
     one-shot, and disarmed on every exit path so a fault armed for
     spec k can never leak into spec k+1. *)
  (match inject with
  | Some (site, n) -> Bdd.Fault.arm man ~site ~after:n
  | None -> ());
  Bdd.with_root man (fun () -> spec_preds) @@ fun () ->
  Fun.protect
    ~finally:(fun () ->
      Bdd.Fault.disarm man;
      Bdd.set_cache_limit man saved_cache_limit)
    (fun () ->
      let outcome =
        match
          Robust.Ladder.run ~retries:opts.retries
            ~cancelled:(fun () -> Atomic.get cancel)
            ~fits_explicit:(fun () -> Robust.Fallback.fits m)
            ~live_nodes:(fun () -> Bdd.live_nodes man)
            ?prior attempt_fn
        with
        | r -> r
        | exception Bdd.Limits.Exhausted info ->
          (* Only [Interrupted] breaches reach here (the ladder retries
             the others): report like any breach and stop cleanly. *)
          Format.fprintf ppf "-- specification %s is UNDETERMINED (%s)@."
            name (describe_breach info);
          print_breach_progress ppf info;
          ignore (Bdd.gc man);
          Error (Robust.Ladder.Breach info, [])
        | exception e when not debug ->
          Format.fprintf ppf
            "-- specification %s is UNDETERMINED (internal error: %s)@."
            name (Printexc.to_string e);
          Error
            ( Robust.Ladder.Crashed (Printexc.to_string e),
              [] )
      in
      let print_attempt_log log =
        if opts.stats && List.length log > 1 then
          List.iter
            (fun a ->
              Format.fprintf ppf "--   %a@." Robust.Ladder.pp_attempt a)
            log
      in
      match outcome with
      | Error (failure, log) ->
        (* The ladder is out of rungs (or was never given any): report
           the last failure.  For --retries 0 these prints are exactly
           the pre-recovery checker's. *)
        (match (failure, log) with
        | Robust.Ladder.Breach info, _ :: _ ->
          Format.fprintf ppf "-- specification %s is UNDETERMINED (%s)@."
            name (describe_breach info);
          print_breach_progress ppf info;
          ignore (Bdd.gc man)
        | Robust.Ladder.Oom, _ :: _ ->
          if debug && opts.retries = 0 then raise Out_of_memory;
          Format.fprintf ppf
            "-- specification %s is UNDETERMINED (internal error: %s)@." name
            (Printexc.to_string Out_of_memory)
        | Robust.Ladder.Crashed msg, _ :: _ ->
          Format.fprintf ppf
            "-- specification %s is UNDETERMINED (worker failed: %s)@." name
            msg
        | _, [] ->
          (* the failure was already reported (interrupt / internal
             error paths above) *)
          ());
        print_attempt_log log;
        { verdict = Undetermined (Robust.Ladder.failure_name failure);
          cert_failed = false }
      | Ok (ar, log) ->
        let holds = ar.ar_holds in
        let final =
          match List.rev log with a :: _ -> a | [] -> assert false
        in
        let recovered = final.Robust.Ladder.index > 1 in
        Format.fprintf ppf "-- specification %s is %s%s@." name
          (if holds then "true" else "false")
          (if recovered then
             Printf.sprintf " (recovered: attempt %d via %s)"
               final.Robust.Ladder.index
               (Robust.Ladder.strategy_name final.Robust.Ladder.strategy)
           else "");
        print_attempt_log log;
        let need_cert = opts.certify || recovered in
        let tr =
          if opts.traces || need_cert then begin
            match
              Bdd.Limits.with_attached ar.ar_model.Kripke.man ar.ar_limits
                (fun () ->
                  trace_for ppf ar.ar_model ~limits:ar.ar_limits
                    ~emit:opts.traces ~holds ~fallback:ar.ar_fallback spec)
            with
            | tr -> tr
            | exception e when not debug ->
              Format.fprintf ppf "-- (trace construction failed: %s)@."
                (Printexc.to_string e);
              None
          end
          else None
        in
        let cert_failed =
          match tr with
          | Some tr when need_cert -> (
            (* Certification runs uncapped but cancellable: the trace
               is already in hand, only cancellation may stop its
               re-validation. *)
            let climits = Bdd.Limits.create ~cancel () in
            let cert =
              if holds then Robust.Certify.witness ~limits:climits m spec tr
              else Robust.Certify.counterexample ~limits:climits m spec tr
            in
            match
              Bdd.Limits.with_attached man climits (fun () -> cert)
            with
            | Ok () ->
              Format.fprintf ppf
                "-- certificate: trace independently validated (%d states)@."
                (Kripke.Trace.length tr);
              false
            | Error msg ->
              Format.fprintf ppf "-- CERTIFICATION FAILED: %s@." msg;
              Format.fprintf ppf
                "-- specification %s verdict withdrawn (uncertified trace)@."
                name;
              true
            | exception Bdd.Limits.Exhausted info ->
              Format.fprintf ppf "-- (certification interrupted: %s)@."
                (describe_breach info);
              false)
          | Some _ | None -> false
        in
        if cert_failed then
          { verdict = Undetermined "certification failed"; cert_failed = true }
        else { verdict = (if holds then Holds else Fails); cert_failed = false })

type outcome = {
  verdicts : (string * report) list;
  worker_stats : Bdd.stats list;
  exit_code : int;
}

(* The model's SPECs, then the extra texts; the first text that does
   not compile is the whole run's (only) error. *)
let compile_specs compiled texts =
  List.fold_left
    (fun acc text ->
      let* acc = acc in
      match Smv.Compile.compile_expr compiled text with
      | f -> Ok ((text, f) :: acc)
      | exception
          ( Smv.Lexer.Error (msg, _)
          | Smv.Parser.Error (msg, _)
          | Smv.Compile.Error (msg, _) ) ->
        Error (Printf.sprintf "spec %S: %s" text msg))
    (Ok []) texts
  |> Result.map (fun extra -> compiled.Smv.Compile.specs @ List.rev extra)

(* Fan the specs out over worker domains.  Each task renders its whole
   report into a private buffer; the buffers are replayed on the
   calling domain in specification order, so the bytes are identical
   to a sequential run's. *)
let fan_out ppf compiled ~opts ~cancel ~debug ~jobs ?fault specs =
  let m = compiled.Smv.Compile.model in
  let main_clusters = compiled.Smv.Compile.clusters in
  let names = Array.of_list (List.map fst specs) in
  let formulas = Array.of_list (List.map snd specs) in
  let f wm spec i =
    (* [Kripke.clone_into] replicated the coordinator's order and pair
       grouping; the order-independent [Bdd.transfer] bridges whatever
       order a worker's recovery ladder later sifts to. *)
    let buf = Buffer.create 512 in
    let wppf = Format.formatter_of_buffer buf in
    let clusters () =
      List.map (Bdd.transfer ~src:m.Kripke.man ~dst:wm.Kripke.man) main_clusters
    in
    let r =
      check_one wppf wm ~opts ~cancel ~debug ~clusters ?inject:fault
        (names.(i), spec)
    in
    Format.pp_print_flush wppf ();
    (r, Buffer.contents buf)
  in
  (* Crashed-worker recovery happens here, on the calling domain, in
     spec order: the crashed attempt seeds the ladder as attempt 1 and
     the re-run climbs from Main_domain.  [overrides] keeps the
     recovered reports for final aggregation. *)
  let overrides : (int, report) Hashtbl.t = Hashtbl.create 4 in
  let on_result i = function
    | Ok ((_ : report), out) ->
      (* One token, then a flush: the flush resets Format's column
         tracking, which a multi-line string would otherwise corrupt. *)
      Format.pp_print_string ppf out;
      Format.pp_print_flush ppf ()
    | Error Parallel.Specs.Cancelled -> ()
    | Error Parallel.Pool.Worker_crashed
      when opts.retries > 0 && not (Atomic.get cancel) ->
      let prior =
        [
          {
            Robust.Ladder.index = 1;
            strategy = Robust.Ladder.Direct;
            failure = Some (Robust.Ladder.Crashed "worker domain died");
            live_nodes = 0;
            duration = 0.;
          };
        ]
      in
      Hashtbl.replace overrides i
        (check_one ppf m ~opts ~cancel ~debug
           ~clusters:(fun () -> main_clusters)
           ~prior (names.(i), formulas.(i)))
    | Error e when not debug ->
      Format.fprintf ppf
        "-- specification %s is UNDETERMINED (worker failed: %s)@."
        names.(i) (Printexc.to_string e)
    | Error e -> raise e
  in
  let results, worker_stats =
    Parallel.Specs.map ~jobs ~cancel
      ?chaos_crash:
        (match opts.inject with Some (Worker_crash n) -> Some n | _ -> None)
      ~on_result ~f m formulas
  in
  let report i r =
    match (Hashtbl.find_opt overrides i, r) with
    | Some r, _ | None, Ok (r, _) -> Some r
    | None, Error Parallel.Specs.Cancelled -> None
    | None, Error e ->
      Some { verdict = Undetermined (Printexc.to_string e); cert_failed = false }
  in
  ( List.filter_map Fun.id
      (Array.to_list
         (Array.mapi
            (fun i r -> Option.map (fun r -> (names.(i), r)) (report i r))
            results)),
    worker_stats )

let run ppf compiled ~opts ~specs ~cancel ~debug ~jobs ~prepare =
  let m = compiled.Smv.Compile.model in
  let prepared = prepare () in
  let* specs = compile_specs compiled specs in
  let fault =
    match opts.inject with Some (Fault (s, n)) -> Some (s, n) | _ -> None
  in
  let verdicts, worker_stats =
    if specs = [] then begin
      Format.fprintf ppf "no specifications to check@.";
      ([], [])
    end
    else if jobs > 1 && List.length specs > 1 then
      fan_out ppf compiled ~opts ~cancel ~debug ~jobs ?fault specs
    else
      (* Stop early once cancelled; otherwise check every spec even
         after failures and breaches (per-spec isolation). *)
      ( List.filter_map
          (fun ((name, _) as spec) ->
            if Atomic.get cancel then None
            else
              Some
                ( name,
                  check_one ppf m ~opts ~cancel ~debug
                    ~clusters:(fun () -> compiled.Smv.Compile.clusters)
                    ?inject:fault spec ))
          specs,
        [] )
  in
  let exit_code =
    exit_code ~interrupted:(Atomic.get cancel) (List.map snd verdicts)
  in
  Ok (prepared, { verdicts; worker_stats; exit_code })
