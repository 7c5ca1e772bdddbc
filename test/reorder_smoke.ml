(* Smoke test for the --reorder contract, run via
   `dune build @reorder-smoke`: reordering must never change what the
   checker says, only how many nodes it takes to say it.  Each model
   is checked under --reorder none and --reorder auto --stats and the
   verdict/trace lines ("-- ..." and "state ...") must be
   byte-identical; only the stats block (which reports node counts and
   reorder activity) may differ.

   Models: the arbiter (the E13 workload — its declaration order is
   deliberately adversarial, so auto reordering must also shrink the
   peak substantially) and the 26-bit counter under a step budget (the
   governed-breach path: reordering must not perturb UNDETERMINED
   reporting either; the budget keeps the deep fixpoint, and hence the
   alias, fast).  counter26 runs without --stats: the model-stats line
   computes the full reachable fixpoint, which needs ~2^26 iterations
   there — with no stats block the whole output must be
   byte-identical. *)

open Smoke

(* The order-independent slice of a run's output: verdicts, traces and
   governance reports — everything except the stats block. *)
let verdict_lines out =
  String.split_on_char '\n' out
  |> List.filter (fun l ->
         (String.length l >= 2 && String.sub l 0 2 = "--")
         || (String.length l >= 5 && String.sub l 0 5 = "state"))
  |> String.concat "\n"

let peak_nodes out =
  String.split_on_char '\n' out
  |> List.find_map (fun l ->
         try Scanf.sscanf l "BDD manager: %d live nodes (peak %d"
               (fun _ peak -> Some peak)
         with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)

let check ?(stats = false) name args =
  let args = if stats then args @ [ "--stats" ] else args in
  let none_code, none_out = run (args @ [ "--reorder"; "none" ]) in
  let auto_code, auto_out = run (args @ [ "--reorder"; "auto" ]) in
  expect (name ^ ": exit codes agree") (none_code = auto_code);
  let nv, av =
    if stats then (verdict_lines none_out, verdict_lines auto_out)
    else (none_out, auto_out)
  in
  expect
    (name
    ^
    if stats then ": verdicts and traces byte-identical"
    else ": output byte-identical")
    (nv = av);
  if nv <> av then
    Printf.printf "--- reorder none ---\n%s\n--- reorder auto ---\n%s\n%!" nv av;
  (none_out, auto_out)

let () =
  let none_out, auto_out = check ~stats:true "arbiter" [ model_path "arbiter.smv" ] in
  (match (peak_nodes none_out, peak_nodes auto_out) with
  | Some p_none, Some p_auto ->
    expect
      (Printf.sprintf "arbiter: peak halved under --reorder auto (%d -> %d)"
         p_none p_auto)
      (2 * p_auto <= p_none)
  | _ -> expect "arbiter: peak node counts parsed" false);
  (* counter26's first spec needs ~2^26 backward steps; the budget trips
     it into UNDETERMINED quickly in both runs. *)
  ignore (check "counter26" [ model_path "counter26.smv"; "--step-limit"; "64" ]);
  finish "deviation(s) from the --reorder contract"
