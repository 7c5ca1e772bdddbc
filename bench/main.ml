(* Benchmark harness: regenerates every evaluation artifact of the
   paper (see DESIGN.md's experiment index and EXPERIMENTS.md for the
   paper-vs-measured record).

   Usage:
     dune exec bench/main.exe                 # all experiments, quick
     dune exec bench/main.exe -- --full       # larger sweeps
     dune exec bench/main.exe -- --only E2 E3 # a subset
     dune exec bench/main.exe -- --raw        # Bechamel OLS estimates
     dune exec bench/main.exe -- --json       # also emit JSON rows
     dune exec bench/main.exe -- --smoke      # tiny eviction and E8 smoke run *)

let experiments =
  [
    ("E1", Exp_arbiter.run, Exp_arbiter.bechamel);
    ("E2", Exp_minwit.run, Exp_minwit.bechamel);
    ("E3", Exp_scc.run, Exp_scc.bechamel);
    ("E4", Exp_ctlstar.run, Exp_ctlstar.bechamel);
    ("E5", Exp_containment.run, Exp_containment.bechamel);
    ("E6", Exp_symbolic.run, Exp_symbolic.bechamel);
    ("E7", Exp_fair.run, Exp_fair.bechamel);
    ("E8", Exp_overhead.run, Exp_overhead.bechamel);
    ("E9", Exp_partition.run, Exp_partition.bechamel);
    ("E10", Exp_govern.run, Exp_govern.bechamel);
    ("E12", Exp_recover.run, Exp_recover.bechamel);
    ("E14", Exp_serve.run, Exp_serve.bechamel);
    ("E15", Exp_serve.run_overload, Exp_serve.bechamel_overload);
    ("E16", Exp_nodestore.run, Exp_nodestore.bechamel);
    ("E17", Exp_serve.run_restart, Exp_serve.bechamel_restart);
  ]

let run_raw () =
  (* The classic Bechamel pipeline: every experiment contributes one
     Test.make (or group); OLS estimates of ns/run are printed. *)
  let tests =
    Bechamel.Test.make_grouped ~name:"counterexamples"
      (List.map (fun (_, _, t) -> t) experiments)
  in
  let measures = [ Bechamel.Toolkit.Instance.monotonic_clock ] in
  let raw =
    Bechamel.Benchmark.all (Harness.cfg ~quota_s:1.0 ()) measures tests
  in
  let ols =
    Bechamel.Analyze.ols ~r_square:true ~bootstrap:0
      ~predictors:[| Bechamel.Measure.run |]
  in
  let results =
    Bechamel.Analyze.all ols Bechamel.Toolkit.Instance.monotonic_clock raw
  in
  Format.printf "== Bechamel OLS estimates (monotonic clock) ==@.";
  Hashtbl.iter
    (fun name result ->
      match Bechamel.Analyze.OLS.estimates result with
      | Some [ ns ] ->
        Format.printf "%-40s %s/run@." name (Harness.ns_string ns)
      | Some _ | None -> Format.printf "%-40s (no estimate)@." name)
    results

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let full = List.mem "--full" args in
  let raw = List.mem "--raw" args in
  Harness.json_enabled := List.mem "--json" args;
  let selected_ids =
    List.filter
      (fun a -> String.length a > 0 && a.[0] = 'E')
      args
  in
  let selected id = selected_ids = [] || List.mem id selected_ids in
  if List.mem "--smoke" args then begin
    (* A seconds-scale workload with bounded op-caches and stats output,
       wired to the @bench-smoke alias; non-zero exit on any verdict
       divergence between bounded and unbounded caches, or on an E8
       smoke trace that does not certify. *)
    let evictions = Exp_fair.smoke () in
    let traces = Exp_overhead.smoke () in
    exit (if evictions && traces then 0 else 1)
  end
  else if raw then run_raw ()
  else begin
    Format.printf "Benchmarks reproducing the evaluation artifacts of@.";
    Format.printf
      "\"Efficient Generation of Counterexamples and Witnesses in Symbolic Model Checking\"@.";
    Format.printf "(Clarke, Grumberg, McMillan, Zhao — DAC 1995)%s@."
      (if full then " — full sweeps" else "");
    List.iter
      (fun (id, run, _) -> if selected id then run ~full)
      experiments;
    Format.printf "@.(see EXPERIMENTS.md for the paper-vs-measured record)@."
  end
