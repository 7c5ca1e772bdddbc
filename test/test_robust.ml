(* Unit tests for the recovery engine: the ladder's rung policy and
   attempt log, SIGINT short-circuiting, the deterministic fault hooks
   in the BDD manager, and the explicit-state fallback's agreement with
   the symbolic checker. *)

let prop name ?(count = 100) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let breach_exn () =
  (* A real breach raised by a real bundle: create step-budgeted limits
     and burn them. *)
  let m = Bdd.create () in
  let l = Bdd.Limits.create ~step_budget:1 () in
  match
    Bdd.Limits.with_attached m l (fun () ->
        Bdd.Limits.step m l;
        Bdd.Limits.step m l)
  with
  | () -> Alcotest.fail "step budget did not trip"
  | exception (Bdd.Limits.Exhausted _ as e) -> e

let no_fits () = false
let nodes () = 0

(* ------------------------------------------------------------------ *)
(* Ladder policy.                                                      *)

let test_first_attempt_is_direct () =
  match
    Robust.Ladder.run ~retries:3
      ~cancelled:(fun () -> false)
      ~fits_explicit:no_fits ~live_nodes:nodes
      (fun ~attempt strategy -> (attempt, strategy))
  with
  | Ok ((1, Robust.Ladder.Direct), [ a ]) ->
    Alcotest.(check int) "log index" 1 a.Robust.Ladder.index;
    Alcotest.(check bool) "log success" true (a.Robust.Ladder.failure = None)
  | _ -> Alcotest.fail "first attempt was not a plain Direct"

let test_rung_order () =
  (* Fail every attempt; observe the escalation.  fits_explicit = false
     keeps the last rung symbolic. *)
  let e = breach_exn () in
  let seen = ref [] in
  (match
     Robust.Ladder.run ~retries:3
       ~cancelled:(fun () -> false)
       ~fits_explicit:no_fits ~live_nodes:nodes
       (fun ~attempt:_ strategy ->
         seen := strategy :: !seen;
         raise e)
   with
  | Ok _ -> Alcotest.fail "all attempts raised, yet the ladder succeeded"
  | Error (Robust.Ladder.Breach _, log) ->
    Alcotest.(check int) "four attempts logged" 4 (List.length log)
  | Error _ -> Alcotest.fail "breach misclassified");
  Alcotest.(check (list string))
    "rung escalation" [ "direct"; "gc-retry"; "degraded"; "degraded" ]
    (List.rev_map Robust.Ladder.strategy_name !seen)

let test_explicit_rung_is_last_and_gated () =
  let e = breach_exn () in
  let seen = ref [] in
  (match
     Robust.Ladder.run ~retries:2
       ~cancelled:(fun () -> false)
       ~fits_explicit:(fun () -> true)
       ~live_nodes:nodes
       (fun ~attempt:_ strategy ->
         seen := strategy :: !seen;
         raise e)
   with
  | Ok _ -> Alcotest.fail "unexpected success"
  | Error _ -> ());
  Alcotest.(check (list string))
    "explicit-state reserved for the final attempt"
    [ "direct"; "gc-retry"; "explicit-state" ]
    (List.rev_map Robust.Ladder.strategy_name !seen)

let test_success_stops_climbing () =
  let e = breach_exn () in
  let calls = ref 0 in
  match
    Robust.Ladder.run ~retries:5
      ~cancelled:(fun () -> false)
      ~fits_explicit:no_fits ~live_nodes:nodes
      (fun ~attempt strategy ->
        incr calls;
        if attempt < 3 then raise e else (attempt, strategy))
  with
  | Ok ((3, _), log) ->
    Alcotest.(check int) "three attempts made" 3 !calls;
    Alcotest.(check int) "three attempts logged" 3 (List.length log);
    let last = List.nth log 2 in
    Alcotest.(check bool) "final entry is the success" true
      (last.Robust.Ladder.failure = None)
  | Ok _ -> Alcotest.fail "wrong attempt succeeded"
  | Error _ -> Alcotest.fail "ladder gave up despite budget left"

let test_oom_classified () =
  match
    Robust.Ladder.run ~retries:1
      ~cancelled:(fun () -> false)
      ~fits_explicit:no_fits ~live_nodes:nodes
      (fun ~attempt _ -> if attempt = 1 then raise Out_of_memory else "ok")
  with
  | Ok ("ok", log) ->
    Alcotest.(check string) "first failure tag" "out-of-memory"
      (match (List.hd log).Robust.Ladder.failure with
      | Some f -> Robust.Ladder.failure_name f
      | None -> "none")
  | _ -> Alcotest.fail "Out_of_memory was not recovered"

(* An unexpected exception inside a check is the engine's internal
   error, whatever raised it: the spec is Undetermined with that tag. *)
let test_crash_tagged_internal_error () =
  Alcotest.(check string) "failure_name" "internal-error"
    (Robust.Ladder.failure_name (Robust.Ladder.Crashed "boom"));
  let m = Models.counter 3 in
  let buf = Buffer.create 64 in
  let ppf = Format.formatter_of_buffer buf in
  let report =
    Server.Engine.check_one ppf m ~opts:Server.Engine.default
      ~cancel:(Atomic.make false) ~clusters:[]
      ("unknown label", Ctl.Atom "no_such_label")
  in
  Format.pp_print_flush ppf ();
  Alcotest.(check bool) "verdict tag" true
    (report.Server.Engine.verdict
     = Server.Engine.Undetermined "internal-error");
  Alcotest.(check bool) "reported as an internal error" true
    (Astring.String.is_infix ~affix:"UNDETERMINED (internal error:"
       (Buffer.contents buf))

(* Satellite: SIGINT short-circuits the ladder.  Cancellation raised
   *inside* an attempt surfaces as an Interrupted breach, which the
   ladder must re-raise, not retry; cancellation *between* attempts
   must prevent the next attempt from ever starting. *)
let test_cancel_short_circuits () =
  let m = Bdd.create () in
  let cancel = Atomic.make false in
  let l = Bdd.Limits.create ~cancel () in
  let interrupted_exn =
    match
      Bdd.Limits.with_attached m l (fun () ->
          Atomic.set cancel true;
          Bdd.Limits.step m l)
    with
    | () -> Alcotest.fail "cancel flag did not raise"
    | exception (Bdd.Limits.Exhausted _ as e) -> e
  in
  Atomic.set cancel false;
  (* Inside an attempt: re-raised immediately, zero retries consumed. *)
  let calls = ref 0 in
  (match
     Robust.Ladder.run ~retries:5
       ~cancelled:(fun () -> Atomic.get cancel)
       ~fits_explicit:no_fits ~live_nodes:nodes
       (fun ~attempt:_ _ ->
         incr calls;
         raise interrupted_exn)
   with
  | Ok _ | Error _ -> Alcotest.fail "Interrupted breach was swallowed"
  | exception Bdd.Limits.Exhausted _ -> ());
  Alcotest.(check int) "no attempt after the interrupt" 1 !calls;
  (* Between attempts: a recoverable failure with the flag set must not
     start attempt 2. *)
  let e = breach_exn () in
  let calls = ref 0 in
  (match
     Robust.Ladder.run ~retries:5
       ~cancelled:(fun () -> Atomic.get cancel)
       ~fits_explicit:no_fits ~live_nodes:nodes
       (fun ~attempt:_ _ ->
         incr calls;
         Atomic.set cancel true;
         raise e)
   with
  | Ok _ -> Alcotest.fail "unexpected success"
  | Error (Robust.Ladder.Breach _, log) ->
    Alcotest.(check int) "ladder stopped at the flag" 1 (List.length log)
  | Error _ -> Alcotest.fail "breach misclassified");
  Alcotest.(check int) "exactly one attempt ran" 1 !calls

(* ------------------------------------------------------------------ *)
(* Deterministic fault hooks.                                          *)

let test_fault_mk_fires_once () =
  let m = Bdd.create () in
  Bdd.Fault.arm m ~site:Bdd.Fault.Mk ~after:3;
  let mk_nodes () =
    (* fresh conjunctions force genuinely new nodes *)
    ignore
      (Bdd.conj m (List.init 6 (fun i -> Bdd.var m i)))
  in
  (match mk_nodes () with
  | () -> Alcotest.fail "armed mk fault did not fire"
  | exception Out_of_memory -> ());
  Alcotest.(check int) "fired counter" 1 (Bdd.Fault.fired m);
  Alcotest.(check bool) "disarmed after firing" true (Bdd.Fault.armed m = None);
  (* The very same work now completes: one-shot semantics. *)
  mk_nodes ()

let test_fault_step_breaches () =
  let m = Bdd.create () in
  let l = Bdd.Limits.create () in
  Bdd.Fault.arm m ~site:Bdd.Fault.Step ~after:2;
  match
    Bdd.Limits.with_attached m l (fun () ->
        Bdd.Limits.step m l;
        Bdd.Limits.step m l)
  with
  | () -> Alcotest.fail "armed step fault did not fire"
  | exception Bdd.Limits.Exhausted info -> (
    match info.Bdd.Limits.breach with
    | Bdd.Limits.Deadline _ -> ()
    | b ->
      Alcotest.failf "step fault raised the wrong breach: %a"
        Bdd.Limits.pp_breach b)

let test_fault_arm_validation () =
  let m = Bdd.create () in
  (match Bdd.Fault.arm m ~site:Bdd.Fault.Gc ~after:0 with
  | () -> Alcotest.fail "after:0 accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check (option string)) "site round-trip" (Some "probe")
    (Option.map Bdd.Fault.site_to_string
       (Bdd.Fault.site_of_string "probe"))

(* ------------------------------------------------------------------ *)
(* Explicit-state fallback agrees with the symbolic checker.           *)

let with_formula ?(nfair = 1) () =
  QCheck2.Gen.pair (Models.random_model_gen ~nfair ()) Models.formula_gen

let prop_fallback_agrees =
  prop "fallback verdicts match symbolic (fair)" ~count:200
    (with_formula ())
    (fun (rm, f) ->
      let m = rm.Models.sym in
      let fb = Robust.Fallback.build m in
      Robust.Fallback.holds fb ~fair:true f = Ctl.Fair.holds m f)

let prop_fallback_agrees_plain =
  prop "fallback verdicts match symbolic (plain)" ~count:200
    (with_formula ~nfair:0 ())
    (fun (rm, f) ->
      let m = rm.Models.sym in
      let fb = Robust.Fallback.build m in
      Robust.Fallback.holds fb ~fair:false f = Ctl.Check.holds m f)

(* A missing fallback trace is accepted only where the symbolic
   explainer has none either. *)
let prop_fallback_traces_certify =
  prop "fallback traces certify on the symbolic model" ~count:200
    (with_formula ())
    (fun (rm, f) ->
      let m = rm.Models.sym in
      let fb = Robust.Fallback.build m in
      let no_symbolic_trace explain =
        match explain m f with
        | None -> true
        | Some _ ->
          QCheck2.Test.fail_reportf
            "fallback has no trace where the symbolic explainer has one"
      in
      if Robust.Fallback.holds fb ~fair:true f then
        match Robust.Fallback.witness fb f with
        | None -> no_symbolic_trace Counterex.Explain.witness
        | Some tr -> (
          match Robust.Certify.witness m f tr with
          | Ok () -> true
          | Error msg ->
            QCheck2.Test.fail_reportf
              "fallback witness failed certification: %s" msg)
      else
        match Robust.Fallback.counterexample fb f with
        | None -> no_symbolic_trace Counterex.Explain.counterexample
        | Some tr -> (
          match Robust.Certify.counterexample m f tr with
          | Ok () -> true
          | Error msg ->
            QCheck2.Test.fail_reportf
              "fallback counterexample failed certification: %s" msg))

(* One memo per spec, as the explicit rung shares it between the
   verdict and the trace: the same verdict and the same trace as
   private memos, and a memo of another bridge is refused. *)
let prop_fallback_shared_memo =
  prop "fallback: a shared memo changes neither verdict nor trace"
    ~count:200 (with_formula ())
    (fun (rm, f) ->
      let fb = Robust.Fallback.build rm.Models.sym in
      let memo = Robust.Fallback.memo fb in
      let holds = Robust.Fallback.holds ~memo fb ~fair:true f in
      let trace =
        if holds then Robust.Fallback.witness else Robust.Fallback.counterexample
      in
      let explain ?memo () =
        match trace ?memo fb f with
        | tr -> Ok tr
        | exception Counterex.Explain.Cannot_explain msg -> Error msg
      in
      holds = Robust.Fallback.holds fb ~fair:true f
      && explain ~memo () = explain ()
      &&
      match Robust.Fallback.holds ~memo (Robust.Fallback.build rm.Models.sym)
              ~fair:true f with
      | _ -> false
      | exception Invalid_argument _ -> true)

let test_fits_threshold () =
  let m = (Models.mutex ()).Models.m in
  Alcotest.(check bool) "small model fits" true (Robust.Fallback.fits m);
  Alcotest.(check bool) "threshold 1 excludes it" false
    (Robust.Fallback.fits ~threshold:1 m)

let suite =
  [
    Alcotest.test_case "attempt 1 is Direct" `Quick
      test_first_attempt_is_direct;
    Alcotest.test_case "rung escalation order" `Quick test_rung_order;
    Alcotest.test_case "explicit rung gated and last" `Quick
      test_explicit_rung_is_last_and_gated;
    Alcotest.test_case "success stops climbing" `Quick
      test_success_stops_climbing;
    Alcotest.test_case "Out_of_memory recovered" `Quick test_oom_classified;
    Alcotest.test_case "crash tagged internal-error" `Quick
      test_crash_tagged_internal_error;
    Alcotest.test_case "SIGINT short-circuits the ladder" `Quick
      test_cancel_short_circuits;
    Alcotest.test_case "mk fault fires once" `Quick test_fault_mk_fires_once;
    Alcotest.test_case "step fault breaches as deadline" `Quick
      test_fault_step_breaches;
    Alcotest.test_case "fault arming validated" `Quick
      test_fault_arm_validation;
    Alcotest.test_case "fits threshold" `Quick test_fits_threshold;
    prop_fallback_agrees;
    prop_fallback_agrees_plain;
    prop_fallback_traces_certify;
    prop_fallback_shared_memo;
  ]
