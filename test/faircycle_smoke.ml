(* Smoke test for the --fair-engine contract, run via
   `dune build @fair-smoke`: the lock-step fair-cycle engine must be a
   pure performance choice — on every committed example model a
   `--fair-engine lockstep` run must be byte-identical (stdout+stderr
   and exit code) to a `--fair-engine el` run, which in turn must be
   byte-identical to a run with no flag at all (the default is the
   classical Emerson-Lei engine, so PR-over-PR default output cannot
   drift).  Every run passes --certify, so each lock-step witness and
   counterexample is also independently re-validated before it counts.

   The fairness-heavy models (philosophers, ring) exercise the
   lock-step SCC decomposition proper; the fairness-free ones cover
   the degenerate single-[true]-constraint path; counter26 runs under
   a step budget so the governed UNDETERMINED path is engine-stable
   too.  A final check pins the --stats seam: the lock-step counters
   line appears exactly when the lock-step engine was selected. *)

open Smoke

(* Every unbudgeted model must be byte-identical across engines.
   counter26 runs under a step budget, where the two engines
   legitimately spend their per-spec steps on different fixpoints —
   there only the exit code and the governed-breach shape are
   engine-stable, not the UNDETERMINED fine print. *)
let workloads =
  [
    ("arbiter", `Identical, [ model_path "arbiter.smv" ]);
    ("cache", `Identical, [ model_path "cache.smv" ]);
    ("counter12", `Identical, [ model_path "counter12.smv" ]);
    ("counter26", `Governed, [ model_path "counter26.smv"; "--step-limit"; "64" ]);
    ("mutex", `Identical, [ model_path "mutex.smv" ]);
    ("philosophers", `Identical, [ model_path "philosophers.smv" ]);
    ("ring", `Identical, [ model_path "ring.smv" ]);
  ]

let check (name, gate, args) =
  let args = args @ [ "--certify" ] in
  let def_code, def_out = run args in
  let el_code, el_out = run (args @ [ "--fair-engine"; "el" ]) in
  let ls_code, ls_out = run (args @ [ "--fair-engine"; "lockstep" ]) in
  expect (name ^ ": default run is the el run")
    (def_code = el_code && def_out = el_out);
  expect (name ^ ": exit codes agree (el vs lockstep)") (el_code = ls_code);
  (match gate with
  | `Identical ->
    expect (name ^ ": output byte-identical (el vs lockstep)")
      (el_out = ls_out);
    if el_out <> ls_out then
      Printf.printf "--- el ---\n%s\n--- lockstep ---\n%s\n%!" el_out ls_out
  | `Governed ->
    expect (name ^ ": breach reported under both engines")
      (contains ~needle:"UNDETERMINED" el_out
      && contains ~needle:"UNDETERMINED" ls_out));
  expect (name ^ ": no certification failure")
    (not (contains ~needle:"CERTIFICATION FAILED" ls_out))

let () =
  List.iter check workloads;
  (* The --stats seam: the lock-step counters line is printed exactly
     when the lock-step engine ran, so default --stats output stays
     byte-stable across PRs. *)
  let _, ls_stats =
    run [ model_path "philosophers.smv"; "--stats"; "--fair-engine"; "lockstep" ]
  in
  let _, el_stats = run [ model_path "philosophers.smv"; "--stats" ] in
  expect "stats: lock-step line present under --fair-engine lockstep"
    (contains ~needle:"lock-step:" ls_stats);
  expect "stats: no lock-step line in a default run"
    (not (contains ~needle:"lock-step:" el_stats));
  finish "deviation(s) from the --fair-engine contract"
