(* Smoke test for the resource-governance exit-code contract, run via
   `dune build @limits-smoke`: one budget-trip case (exit 2, both the
   UNDETERMINED report and the isolated second verdict present) and one
   pass case (exit 1 on mutex.smv: a false spec, nothing undetermined).
   Any deviation fails the alias. *)

open Smoke

let () =
  (* Trip case: the engineered counter exhausts a step budget on its
     first spec; the trivial second spec must still be decided. *)
  let code, out = run [ model_path "counter26.smv"; "--step-limit"; "64"; "-q" ] in
  expect "trip case exits 2" (code = 2);
  expect "trip case reports UNDETERMINED"
    (contains ~needle:"UNDETERMINED (step budget of 64 exceeded" out);
  expect "trip case still checks the next spec"
    (contains ~needle:"(AG (b0 | !b0)) is true" out);
  (* Pass case: a governed run with generous budgets behaves exactly
     like an ungoverned one — mutex.smv has one false spec, exit 1. *)
  let code, out =
    run
      [ model_path "mutex.smv"; "--timeout"; "300"; "--node-limit"; "50000000";
        "-q" ]
  in
  expect "pass case exits 1" (code = 1);
  expect "pass case leaves nothing undetermined"
    (not (contains ~needle:"UNDETERMINED" out));
  finish "deviation(s) from the exit-code contract"
