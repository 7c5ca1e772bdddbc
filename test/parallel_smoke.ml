(* Smoke test for the --jobs determinism contract, run via
   `dune build @parallel-smoke`: a parallel run must be byte-identical
   to a sequential one — same verdicts, same traces, same exit code —
   on a plain model (mutex) and a fairness-constrained one
   (philosophers).  Any deviation fails the alias. *)

open Smoke

let check name args =
  let seq_code, seq_out = run args in
  let par_code, par_out = run (args @ [ "--jobs"; "4" ]) in
  expect (name ^ ": exit codes agree") (seq_code = par_code);
  expect (name ^ ": output byte-identical") (seq_out = par_out);
  if seq_out <> par_out then begin
    Printf.printf "--- sequential ---\n%s--- --jobs 4 ---\n%s%!" seq_out
      par_out
  end

let () =
  check "mutex" [ model_path "mutex.smv" ];
  check "philosophers" [ model_path "philosophers.smv" ];
  finish "deviation(s) from the --jobs determinism contract"
