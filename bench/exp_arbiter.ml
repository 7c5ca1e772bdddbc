(* E1 — the Section 6 case study: verify the asynchronous arbiter,
   find the liveness counterexample, report sizes and times.

   Paper reference (their netlist, 1994 hardware): 33,633 reachable
   states; counterexample 78 states long with a cycle of length 30;
   "the entire verification takes only a few minutes". *)

let eu_iterations () = (Ctl.Check.fixpoint_stats ()).Ctl.Check.eu_iterations

(* The spec is decided and explained over one fixpoint memo, as
   [smv_check] does, so the trace columns count only what the trace
   adds to its verdict. *)
let run ~full =
  let sizes = if full then [ 2; 3; 4 ] else [ 2; 3 ] in
  let rows =
    List.map
      (fun n ->
        let m = Circuit.Arbiter.model n in
        let reach = Kripke.count_states m (Kripke.reachable m) in
        let spec = Circuit.Arbiter.liveness_spec n in
        let memo = Counterex.Explain.memo m in
        let eu0 = eu_iterations () in
        let verdict, t_check =
          Harness.time_once (fun () -> Counterex.Explain.holds memo spec)
        in
        assert (not verdict);
        let eu1 = eu_iterations () in
        let tr, t_trace =
          Harness.time_once (fun () ->
              match Counterex.Explain.counterexample ~memo m spec with
              | Some tr -> tr
              | None -> assert false)
        in
        let eu2 = eu_iterations () in
        let states = Kripke.Trace.length tr in
        let cycle = List.length tr.Kripke.Trace.cycle in
        Harness.emit_json ~experiment:"E1"
          [
            ("users", Harness.Int n);
            ("reachable", Harness.Float reach);
            ("check_s", Harness.Float t_check);
            ("trace_s", Harness.Float t_trace);
            ("check_eu_iterations", Harness.Int (eu1 - eu0));
            ("trace_eu_iterations", Harness.Int (eu2 - eu1));
            ("trace_states", Harness.Int states);
            ("cycle_states", Harness.Int cycle);
          ];
        [
          string_of_int n;
          string_of_int m.Kripke.nbits;
          Printf.sprintf "%.0f" reach;
          "false";
          string_of_int states;
          string_of_int cycle;
          Harness.seconds_string t_check;
          Harness.seconds_string t_trace;
          string_of_int (eu1 - eu0);
          string_of_int (eu2 - eu1);
        ])
      sizes
  in
  Harness.print_table
    ~title:"E1: arbiter case study — AG (tr1 -> AF ta1) under gate fairness"
    ~header:
      [ "users"; "bits"; "reachable"; "verdict"; "ce states"; "cycle";
        "check time"; "ce time"; "check EU iters"; "ce EU iters" ]
    rows;
  Harness.note
    "paper (original Seitz netlist): 33,633 reachable states, counterexample";
  Harness.note
    "of 78 states with a 30-state cycle, \"a few minutes\" on 1994 hardware.";
  Harness.note
    "shape reproduced: liveness fails with a validated fair lasso whose";
  Harness.note "cycle starves user 1; absolute sizes depend on the netlist."

let bechamel =
  let m = lazy (Circuit.Arbiter.model 2) in
  Bechamel.Test.make ~name:"e1-arbiter2-fair-check"
    (Bechamel.Staged.stage (fun () ->
         let m = Lazy.force m in
         Counterex.Explain.holds (Counterex.Explain.memo m)
           (Circuit.Arbiter.liveness_spec 2)))
