let () =
  Alcotest.run "counterexamples"
    [
      ("bdd", Test_bdd.suite);
      ("store", Test_store.suite);
      ("kripke", Test_kripke.suite);
      ("ctl", Test_ctl.suite);
      ("explicit", Test_explicit.suite);
      ("witness", Test_witness.suite);
      ("stats", Test_stats.suite);
      ("ctlstar", Test_ctlstar.suite);
      ("automata", Test_automata.suite);
      ("smv", Test_smv.suite);
      ("circuit", Test_circuit.suite);
      ("partition", Test_partition.suite);
      ("examples", Test_examples.suite);
      ("limits", Test_limits.suite);
      ("parallel", Test_parallel.suite);
      ("frontend_fuzz", Test_frontend_fuzz.suite);
      ("validate", Test_validate.suite);
      ("reorder", Test_reorder.suite);
      ("robust", Test_robust.suite);
      ("chaos", Test_chaos.suite);
      ("server", Test_server.suite);
      ("snapshot", Test_snapshot.suite);
      ("cli", Test_cli.suite);
    ]
