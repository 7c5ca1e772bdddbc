(* Smoke test for the recovery CLI contract, run via
   `dune build @chaos-smoke`: deterministic fault injection
   (--inject) against real models, asserting that

     - recovered runs reproduce the fault-free verdicts (exit code and
       verdict lines), with the recovery annotated;
     - a budget-starved spec that flat-fails on the plain path is
       decided (and its trace certified) under --retries;
     - a crashed worker domain's spec is re-checked on the main domain;
     - injected faults never escape as crashes (exit codes stay within
       the documented 0..3 contract).

   Any deviation fails the alias. *)

open Smoke

(* Just the verdict lines, recovery annotations stripped: the
   fault-free/faulted comparison is on verdicts, not on how they were
   obtained. *)
let strip_recovery line =
  let marker = " (recovered:" in
  let ml = String.length marker and n = String.length line in
  let rec find i =
    if i + ml > n then None
    else if String.sub line i ml = marker then Some i
    else find (i + 1)
  in
  match find 0 with Some i -> String.sub line 0 i | None -> line

let verdicts out =
  String.split_on_char '\n' out
  |> List.filter (contains ~needle:"-- specification")
  |> List.map strip_recovery

let () =
  (* 1. The acceptance scenario: counter12 flat-fails under a tiny step
     budget on the plain path... *)
  let code, out = run [ model_path "counter12.smv"; "--step-limit"; "3"; "-q" ] in
  expect "starved counter12 exits 2 without retries" (code = 2);
  expect "starved counter12 is UNDETERMINED without retries"
    (contains ~needle:"UNDETERMINED (step budget" out);
  (* ... and completes, correctly and certified, with --retries 2. *)
  let code, out =
    run [ model_path "counter12.smv"; "--step-limit"; "3"; "--retries"; "2"; "-q" ]
  in
  expect "recovered counter12 exits 0" (code = 0);
  expect "recovered counter12 decides the starved spec true"
    (contains ~needle:"b11)) is true" out);
  expect "recovery is annotated"
    (contains ~needle:"(recovered: attempt" out);
  expect "recovered trace is certified"
    (contains ~needle:"certificate: trace independently validated" out);
  expect "nothing left undetermined" (not (contains ~needle:"UNDETERMINED" out));

  (* 2. Verdict equality under injection: every site, verdicts match
     the fault-free run on the mutex workload. *)
  let _, clean = run [ model_path "mutex.smv"; "-q" ] in
  let clean_verdicts = verdicts clean in
  expect "fault-free mutex run has 3 verdicts"
    (List.length clean_verdicts = 3);
  List.iter
    (fun site ->
      let inject = site ^ ":20" in
      let code, out =
        run [ model_path "mutex.smv"; "--inject"; inject; "--retries"; "2"; "-q" ]
      in
      expect
        (Printf.sprintf "inject %s: exit within contract" inject)
        (code >= 0 && code <= 3);
      expect
        (Printf.sprintf "inject %s: no crash diagnostic" inject)
        (not (contains ~needle:"internal error" out));
      expect
        (Printf.sprintf "inject %s: verdicts equal fault-free run" inject)
        (verdicts out = clean_verdicts))
    [ "mk"; "probe"; "gc" ];

  (* The step site needs step-governed fixpoints to tick; the deadline
     it synthesizes must be recovered like a real breach. *)
  let code, out =
    run
      [ model_path "mutex.smv"; "--inject"; "step:2"; "--step-limit"; "10000";
        "--retries"; "2"; "-q" ]
  in
  expect "inject step: exit within contract" (code >= 0 && code <= 3);
  expect "inject step: verdicts equal fault-free run"
    (verdicts out = clean_verdicts);

  (* 3. Without a ladder the injected fault is contained: UNDETERMINED
     verdicts, exit 2, no crash. *)
  let code, out = run [ model_path "mutex.smv"; "--inject"; "mk:20"; "-q" ] in
  expect "unladdered fault exits 2" (code = 2);
  expect "unladdered fault reported as UNDETERMINED"
    (contains ~needle:"UNDETERMINED (internal error: Out of memory)" out);

  (* 4. Worker-crash recovery: with --jobs 2, kill the domain that
     picks up the first task; with retries its spec is re-checked on
     the main domain and the run's verdicts are unchanged. *)
  let code, out =
    run
      [ model_path "mutex.smv"; "--jobs"; "2"; "--inject"; "worker:1";
        "--retries"; "1"; "-q" ]
  in
  expect "worker crash recovered: exit matches fault-free" (code = 1);
  expect "worker crash recovered: verdicts equal fault-free run"
    (verdicts out = clean_verdicts);
  expect "worker crash recovery annotated"
    (contains ~needle:"(recovered: attempt 2 via main-domain)" out);
  let code, out =
    run [ model_path "mutex.smv"; "--jobs"; "2"; "--inject"; "worker:1"; "-q" ]
  in
  expect "worker crash without retries exits 2" (code = 2);
  expect "worker crash without retries is UNDETERMINED"
    (contains ~needle:"UNDETERMINED (worker failed" out);

  (* 5. The counter26 workload (E7's governed star): an injected deep
     fault plus recovery must still respect the budget contract. *)
  let code, out =
    run
      [ model_path "counter26.smv"; "--step-limit"; "3"; "--inject"; "mk:1000";
        "--retries"; "2"; "-q" ]
  in
  expect "counter26 chaos run exits 2 (budget still wins)" (code = 2);
  (* The ladder may end on the step breach or on the injected fault
     itself (its countdown spans attempts) — either way the spec is
     UNDETERMINED, never a crash. *)
  expect "counter26 chaos run stays governed"
    (contains ~needle:"UNDETERMINED (step budget" out
    || contains ~needle:"UNDETERMINED (internal error: Out of memory" out);
  expect "counter26 trivial spec still decided"
    (contains ~needle:"(AG (b0 | !b0)) is true" out);

  finish "chaos-smoke failure(s)";
  print_endline "chaos-smoke: all checks passed"
