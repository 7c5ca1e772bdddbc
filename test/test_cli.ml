(* End-to-end contract of the smv_check executable: exit codes
   (0 all hold / 1 some fail / 2 resource limit / 3 input error),
   per-spec fault isolation, and flag validation.  The binary is built
   as a dependency and invoked as a subprocess. *)

open Smoke

let temp_model source =
  let path = Filename.temp_file "smv_cli_test" ".smv" in
  let oc = open_out path in
  output_string oc source;
  close_out oc;
  path

let all_true_model =
  "MODULE main\n\
   VAR x : boolean;\n\
   ASSIGN\n\
   \  init(x) := FALSE;\n\
   \  next(x) := x;\n\
   SPEC AG !x\n\
   SPEC EF !x\n"

let test_exit_all_hold () =
  let path = temp_model all_true_model in
  let code, out = run [ path ] in
  Sys.remove path;
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "both specs true" true
    (contains ~needle:"is true" out && not (contains ~needle:"is false" out))

let test_exit_some_fail () =
  let code, out = run [ model_path "mutex.smv" ] in
  Alcotest.(check int) "exit 1" 1 code;
  Alcotest.(check bool) "a false verdict is reported" true
    (contains ~needle:"is false" out)

let test_exit_limit_and_isolation () =
  let code, out = run [ model_path "counter26.smv"; "--step-limit"; "50" ] in
  Alcotest.(check int) "exit 2" 2 code;
  Alcotest.(check bool) "first spec undetermined" true
    (contains ~needle:"UNDETERMINED (step budget of 50 exceeded" out);
  (* fault isolation: the trivial second spec is still decided *)
  Alcotest.(check bool) "second spec still checked" true
    (contains ~needle:"(AG (b0 | !b0)) is true" out)

let test_timeout_trips () =
  let code, out = run [ model_path "counter26.smv"; "--timeout"; "1" ] in
  Alcotest.(check int) "exit 2" 2 code;
  Alcotest.(check bool) "timeout reported" true
    (contains ~needle:"UNDETERMINED (timeout after" out);
  Alcotest.(check bool) "second spec still checked" true
    (contains ~needle:"(AG (b0 | !b0)) is true" out)

let test_exit_input_errors () =
  let code, _ = run [ "no_such_model.smv" ] in
  Alcotest.(check int) "missing file: exit 3" 3 code;
  let bad = temp_model "MODULE main\nVAR x (\n" in
  let code, _ = run [ bad ] in
  Sys.remove bad;
  Alcotest.(check int) "syntax error: exit 3" 3 code;
  let path = temp_model all_true_model in
  let code, out = run [ path; "--simulate"; "0" ] in
  let code2, out2 = run [ path; "--timeout"; "0" ] in
  let code3, _ = run [ path; "--node-limit"; "0" ] in
  Sys.remove path;
  Alcotest.(check int) "--simulate 0: exit 3" 3 code;
  Alcotest.(check bool) "--simulate message" true
    (contains ~needle:"STEPS must be positive" out);
  Alcotest.(check int) "--timeout 0: exit 3" 3 code2;
  Alcotest.(check bool) "--timeout message" true
    (contains ~needle:"SECS must be positive" out2);
  Alcotest.(check int) "--node-limit 0: exit 3" 3 code3

let test_recovery_flags_validated () =
  let path = temp_model all_true_model in
  (* the = form: a bare "-1" would be eaten by cmdliner's own option
     parsing before our validation sees it *)
  let code, out = run [ path; "--retries=-1" ] in
  Alcotest.(check int) "--retries -1: exit 3" 3 code;
  Alcotest.(check bool) "--retries message" true
    (contains ~needle:"N must be >= 0" out);
  let code, _ = run [ path; "--inject"; "bogus" ] in
  Alcotest.(check int) "--inject without a colon: exit 3" 3 code;
  let code, out = run [ path; "--inject"; "quantum:3" ] in
  Alcotest.(check int) "--inject unknown site: exit 3" 3 code;
  Alcotest.(check bool) "unknown-site message" true
    (contains ~needle:"unknown site" out);
  let code, _ = run [ path; "--inject"; "mk:0" ] in
  Alcotest.(check int) "--inject zero count: exit 3" 3 code;
  let code, out = run [ path; "--inject"; "worker:1" ] in
  Alcotest.(check int) "--inject worker without --jobs: exit 3" 3 code;
  Alcotest.(check bool) "worker-inject message" true
    (contains ~needle:"requires a parallel run" out);
  (* --serve runs the same validator: same exit code, same message. *)
  List.iter
    (fun flags ->
      let what = String.concat " " ("--serve" :: flags) in
      let code, out = run ("--serve" :: flags) in
      let _, one_shot = run (path :: flags) in
      Alcotest.(check int) (what ^ ": exit 3") 3 code;
      Alcotest.(check string) (what ^ ": one-shot message") one_shot out)
    [
      [ "--inject"; "bogus" ];
      [ "--inject"; "child-crash:abc" ];
      [ "--timeout"; "0" ];
    ];
  Sys.remove path

(* A value cmdliner itself cannot parse is a bad flag too: exit 3 like
   every other input error, not cmdliner's own 124. *)
let expect_bad_flag flags =
  let code, out = run (model_path "mutex.smv" :: flags) in
  let what = String.concat " " flags in
  Alcotest.(check int) (what ^ ": exit 3") 3 code;
  Alcotest.(check bool) (what ^ ": nothing checked") false
    (contains ~needle:"-- specification" out);
  out

(* The removed sifting modes are refused like any unknown mode, with
   the valid ones named. *)
let test_bad_reorder_exits_3 () =
  ignore (expect_bad_flag [ "--reorder"; "bogus" ]);
  List.iter
    (fun mode ->
      let out = expect_bad_flag [ "--reorder"; mode ] in
      Alcotest.(check bool) (mode ^ ": valid modes named") true
        (contains ~needle:(Printf.sprintf "invalid value '%s'" mode) out
        && contains ~needle:"'none'" out
        && contains ~needle:"'static'" out))
    [ "once"; "auto" ]

let test_bad_jobs_exits_3 () = ignore (expect_bad_flag [ "--jobs"; "x" ])

(* Both front ends read one default: the flagless command line and an
   option-less check request carry the same check options. *)
let test_flagless_is_optionless_request () =
  let flagless =
    match
      Cmdliner.Cmd.eval_value ~argv:[| "smv_check" |]
        (Cmdliner.Cmd.v (Cmdliner.Cmd.info "smv_check") Check_flags.term)
    with
    | Ok (`Ok options) -> options
    | Ok (`Help | `Version) | Error _ -> Alcotest.fail "flagless parse failed"
  in
  match
    Server.Protocol.parse_request {|{"op":"check","id":"a","model":"m"}|}
  with
  | Ok (Server.Protocol.Check { options; _ }) ->
    Alcotest.(check bool) "same options" true (options = flagless)
  | Ok _ | Error _ -> Alcotest.fail "option-less check request must parse"

(* --retries must decide the budget-starved counter12 spec that the
   plain path leaves UNDETERMINED, annotate the recovery, certify the
   trace, and exit 0; --retries 0 keeps the old contract. *)
let test_retries_recover_starved_spec () =
  let code, out =
    run [ model_path "counter12.smv"; "--step-limit"; "3"; "-q" ]
  in
  Alcotest.(check int) "flat-fail exits 2" 2 code;
  Alcotest.(check bool) "flat-fail is UNDETERMINED" true
    (contains ~needle:"UNDETERMINED (step budget" out);
  let code, out =
    run
      [ model_path "counter12.smv"; "--step-limit"; "3"; "--retries"; "2";
        "-q" ]
  in
  Alcotest.(check int) "recovered run exits 0" 0 code;
  Alcotest.(check bool) "recovery annotated" true
    (contains ~needle:"(recovered: attempt" out);
  Alcotest.(check bool) "recovered trace certified" true
    (contains ~needle:"certificate: trace independently validated" out)

(* --certify on a clean run: every emitted trace re-validates, the
   exit code is unchanged. *)
let test_certify_clean_run () =
  let code, out = run [ model_path "mutex.smv"; "--certify" ] in
  Alcotest.(check int) "certified mutex still exits 1" 1 code;
  Alcotest.(check bool) "counterexample certified" true
    (contains ~needle:"certificate: trace independently validated" out);
  Alcotest.(check bool) "no certification failure" true
    (not (contains ~needle:"CERTIFICATION FAILED" out))

let test_inject_contained_and_recovered () =
  (* Without retries the injected fault surfaces as UNDETERMINED. *)
  let code, out =
    run [ model_path "mutex.smv"; "--inject"; "mk:20"; "-q" ]
  in
  Alcotest.(check int) "unladdered fault exits 2" 2 code;
  Alcotest.(check bool) "fault reported as internal" true
    (contains ~needle:"UNDETERMINED (internal error" out);
  (* With retries the same run recovers to the fault-free exit code. *)
  let code, out =
    run
      [ model_path "mutex.smv"; "--inject"; "mk:20"; "--retries"; "1"; "-q" ]
  in
  Alcotest.(check int) "recovered fault exits 1" 1 code;
  Alcotest.(check bool) "no undetermined left" true
    (not (contains ~needle:"UNDETERMINED" out))

let test_simulate_runs () =
  let path = temp_model all_true_model in
  let code, out = run [ path; "--simulate"; "4"; "--seed"; "7"; "-q" ] in
  Sys.remove path;
  Alcotest.(check int) "exit 0" 0 code;
  Alcotest.(check bool) "simulation printed" true
    (contains ~needle:"random simulation (4 steps, seed 7)" out)

let suite =
  [
    Alcotest.test_case "exit 0 when all specifications hold" `Quick
      test_exit_all_hold;
    Alcotest.test_case "exit 1 when a specification fails" `Quick
      test_exit_some_fail;
    Alcotest.test_case "exit 2 + isolation on a step budget" `Quick
      test_exit_limit_and_isolation;
    Alcotest.test_case "exit 2 + isolation on --timeout" `Slow
      test_timeout_trips;
    Alcotest.test_case "exit 3 on input errors" `Quick
      test_exit_input_errors;
    Alcotest.test_case "recovery flags validated" `Quick
      test_recovery_flags_validated;
    Alcotest.test_case "--reorder bogus exits 3" `Quick
      test_bad_reorder_exits_3;
    Alcotest.test_case "--jobs x exits 3" `Quick test_bad_jobs_exits_3;
    Alcotest.test_case "--retries recovers a starved spec" `Slow
      test_retries_recover_starved_spec;
    Alcotest.test_case "--certify on a clean run" `Quick
      test_certify_clean_run;
    Alcotest.test_case "--inject contained and recovered" `Quick
      test_inject_contained_and_recovered;
    Alcotest.test_case "--simulate walks symbolically" `Quick
      test_simulate_runs;
    Alcotest.test_case "flagless CLI = option-less request" `Quick
      test_flagless_is_optionless_request;
  ]
