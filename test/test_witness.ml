(* Tests for Section 6: witness generation, validation, explanation.

   The central properties: every witness the generator produces for a
   state the checker says satisfies the formula must pass the
   independent trace validator; and a witness is produced for *every*
   such state (completeness).  Lengths are compared against the exact
   NP-hard minimum from Explicit.Minwit on small instances. *)

let prop name ?(count = 150) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let check_valid what = function
  | Ok () -> true
  | Error e ->
    QCheck2.Test.fail_reportf "%s: %a" what Counterex.Validate.pp_error e

(* ------------------------------------------------------------------ *)
(* Property tests on random models.                                    *)

let with_formula ?(nfair = 2) () =
  QCheck2.Gen.pair (Models.random_model_gen ~nfair ()) Models.formula_gen

(* Every state satisfying fair EG f yields a validating lasso. *)
let prop_eg_witness strategy name =
  prop name ~count:150 (with_formula ())
    (fun (rm, af) ->
      let m = rm.Models.sym in
      let f = Ctl.Fair.sat m (Ctl.EG af) in
      let fset = Ctl.Fair.sat m af in
      List.for_all
        (fun st ->
          let tr = Counterex.Witness.eg ~strategy m ~f:fset ~start:st in
          check_valid "eg witness" (Counterex.Validate.eg_witness m ~f:fset tr)
          && Kripke.Trace.nth tr 0 = st)
        (Kripke.states_in m f))

let prop_eg_restart = prop_eg_witness Counterex.Witness.Restart
    "fair EG witnesses validate (Restart strategy)"

let prop_eg_precompute = prop_eg_witness Counterex.Witness.Precompute
    "fair EG witnesses validate (Precompute strategy)"

let prop_eg_no_fairness =
  prop "plain EG witnesses validate (no constraints)" ~count:150
    (with_formula ~nfair:0 ())
    (fun (rm, af) ->
      let m = rm.Models.sym in
      let fset = Ctl.Check.sat m af in
      let eg = Ctl.Check.eg m fset in
      List.for_all
        (fun st ->
          let tr = Counterex.Witness.eg m ~f:fset ~start:st in
          check_valid "eg witness" (Counterex.Validate.eg_witness m ~f:fset tr))
        (Kripke.states_in m eg))

let prop_eg_rejects_nonmembers =
  prop "witness refused outside fair EG f" ~count:100 (with_formula ())
    (fun (rm, af) ->
      let m = rm.Models.sym in
      let fset = Ctl.Fair.sat m af in
      let eg = Ctl.Fair.eg m fset in
      let outside = Bdd.diff m.Kripke.man m.Kripke.space eg in
      List.for_all
        (fun st ->
          match Counterex.Witness.eg m ~f:fset ~start:st with
          | _ -> false
          | exception Counterex.Witness.No_witness _ -> true)
        (Kripke.states_in m outside))

let prop_eu_witness =
  prop "EU witnesses validate and are ring-minimal" ~count:150
    (QCheck2.Gen.pair (Models.random_model_gen ())
       (QCheck2.Gen.pair Models.formula_gen Models.formula_gen))
    (fun (rm, (af, ag)) ->
      let m = rm.Models.sym in
      let f = Ctl.Check.sat m af and g = Ctl.Check.sat m ag in
      let rings = Ctl.Check.eu_rings m f g in
      let eu = Ctl.Check.eu m f g in
      List.for_all
        (fun st ->
          let tr = Counterex.Witness.eu m ~f ~g ~start:st in
          check_valid "eu witness" (Counterex.Validate.eu_witness m ~f ~g tr)
          (* The rings of the fixpoint that decided E[f U g], passed in,
             give the same trace as rings built by the witness. *)
          && Kripke.Trace.states (Counterex.Witness.eu ~rings m ~f ~g ~start:st)
             = Kripke.Trace.states tr
          (* Ring-minimality: the trace length equals 1 + the smallest
             ring index containing the start state. *)
          &&
          let rec level i =
            if Kripke.eval_in_state m rings.(i) st then i else level (i + 1)
          in
          Kripke.Trace.length tr = 1 + level 0)
        (Kripke.states_in m eu))

(* A sweep stopped at [until] is the full sweep cut at its least layer
   that meets [until] (the whole sweep when none does): the closing
   rings of a fair lasso are built that way. *)
let prop_eu_rings_until =
  prop "eu_rings ~until is the full sweep cut at the first meeting layer"
    ~count:150
    (QCheck2.Gen.pair (Models.random_model_gen ())
       (QCheck2.Gen.triple Models.formula_gen Models.formula_gen
          Models.formula_gen))
    (fun (rm, (af, ag, au)) ->
      let m = rm.Models.sym in
      let f = Ctl.Check.sat m af and g = Ctl.Check.sat m ag in
      let until = Ctl.Check.sat m au in
      let full = Ctl.Check.eu_rings m f g in
      let cut = Ctl.Check.eu_rings ~until m f g in
      let meets i = not (Bdd.is_zero (Bdd.and_ m.Kripke.man full.(i) until)) in
      let n = Array.length full and k = Array.length cut in
      let rec least i = if i = n || meets i then i else least (i + 1) in
      let j = least 0 in
      k >= 1 && k <= n
      && Array.for_all2 Bdd.equal cut (Array.sub full 0 k)
      && if j = n then k = n else k = j + 1)

(* A breach keeps the layers its sweep built, each a complete ring, and
   a later call resumes from them: on the 16-state counter, a budget of
   3 steps leaves Q_0 .. Q_3, and the resumed sweep is [eu_rings]'s. *)
let test_breach_keeps_layers () =
  let m = Models.counter 4 in
  let g = Ctl.Check.sat m Ctl.(atom "b0" &&& atom "b1" &&& atom "b2" &&& atom "b3") in
  let f = m.Kripke.space in
  let s = Ctl.Check.sweep g in
  let limits = Bdd.Limits.create ~step_budget:3 () in
  (match Ctl.Check.eu_resume ~limits m f s with
  | () -> Alcotest.fail "expected a step breach"
  | exception Bdd.Limits.Exhausted _ -> ());
  let full = Ctl.Check.eu_rings m f g in
  Alcotest.(check int) "layers kept" 4 (Array.length s.layers);
  Alcotest.(check bool) "not converged" false s.converged;
  Alcotest.(check bool) "a prefix of the full sweep" true
    (Array.for_all2 Bdd.equal s.layers (Array.sub full 0 4));
  Ctl.Check.eu_resume m f s;
  Alcotest.(check bool) "resumed to the full sweep" true
    (s.converged && Array.length s.layers = Array.length full
    && Array.for_all2 Bdd.equal s.layers full)

(* The forward test a closing round asks first agrees with the
   backward rings it replaces: [reaches ~from ~target] holds exactly
   when the last layer of [eu_rings ~until:from f target] meets [from],
   for a random f, every state s (from = its successors) and every
   single-state target {t}. *)
let prop_reaches_matches_rings =
  prop "reaches = the closing rings meet from" ~count:150
    (with_formula ())
    (fun (rm, af) ->
      let m = rm.Models.sym in
      let f = Ctl.Fair.sat m af in
      let n = rm.Models.graph.Explicit.Egraph.nstates in
      let pair_agrees s t =
        let from = Kripke.successors m (rm.Models.encode s) in
        let target = Kripke.state_to_bdd m (rm.Models.encode t) in
        let rings = Ctl.Check.eu_rings ~until:from m f target in
        let last = rings.(Array.length rings - 1) in
        Ctl.Check.reaches m ~f ~from ~target
        = not (Bdd.is_zero (Bdd.and_ m.Kripke.man last from))
      in
      List.for_all
        (fun s -> List.for_all (pair_agrees s) (List.init n Fun.id))
        (List.init n Fun.id))

let prop_ex_witness =
  prop "EX witnesses validate" ~count:150 (with_formula ~nfair:0 ())
    (fun (rm, af) ->
      let m = rm.Models.sym in
      let f = Ctl.Check.sat m af in
      let ex = Ctl.Check.ex m f in
      List.for_all
        (fun st ->
          let tr = Counterex.Witness.ex m ~f ~start:st in
          check_valid "ex witness" (Counterex.Validate.ex_witness m ~f tr)
          && Kripke.Trace.length tr = 2)
        (Kripke.states_in m ex))

(* The heuristic witness is never shorter than the exact NP-hard
   minimum (it cannot be — minimality check of Minwit), and both agree
   on existence. *)
let prop_heuristic_vs_minimal =
  prop "greedy witness >= exact minimum; existence agrees" ~count:100
    (Models.random_model_gen ~max_states:6 ~nfair:2 ())
    (fun rm ->
      let m = rm.Models.sym in
      let fair = Ctl.Fair.fair_states m in
      let g = rm.Models.graph in
      List.for_all
        (fun i ->
          let st = rm.Models.encode i in
          let symbolic_fair = Kripke.eval_in_state m fair st in
          match Explicit.Minwit.minimal g ~start:i with
          | None -> not symbolic_fair
          | Some (prefix, cycle) ->
            symbolic_fair
            &&
            let tr =
              Counterex.Witness.eg m ~f:m.Kripke.space ~start:st
            in
            Kripke.Trace.length tr >= List.length prefix + List.length cycle)
        (List.init g.Explicit.Egraph.nstates Fun.id))

(* ------------------------------------------------------------------ *)
(* Explanation: counterexamples for full CTL.                          *)

let prop_counterexample_exists_iff_fails =
  prop "counterexample exists iff the formula fails" ~count:200
    (with_formula ())
    (fun (rm, f) ->
      let m = rm.Models.sym in
      let holds = Ctl.Fair.holds m f in
      match Counterex.Explain.counterexample m f with
      | None -> holds
      | Some tr ->
        (not holds)
        && check_valid "path" (Counterex.Validate.path_ok m tr)
        && check_valid "starts at init"
             (Counterex.Validate.starts_at m m.Kripke.init tr))

let prop_witness_exists_iff_holds_somewhere =
  prop "witness exists iff some initial state satisfies" ~count:200
    (with_formula ())
    (fun (rm, f) ->
      let m = rm.Models.sym in
      let sat = Ctl.Fair.sat m f in
      let any = not (Bdd.is_zero (Bdd.and_ m.Kripke.man m.Kripke.init sat)) in
      match Counterex.Explain.witness m f with
      | None -> not any
      | Some tr ->
        any
        && check_valid "path" (Counterex.Validate.path_ok m tr)
        && check_valid "starts at init"
             (Counterex.Validate.starts_at m m.Kripke.init tr))

let prop_ag_counterexample_reaches_violation =
  prop "AG p counterexample ends in !p" ~count:200
    (Models.random_model_gen ~nfair:1 ())
    (fun rm ->
      let m = rm.Models.sym in
      let f = Ctl.AG (Ctl.atom "p") in
      match Counterex.Explain.counterexample m f with
      | None -> Ctl.Fair.holds m f
      | Some tr ->
        let p = Ctl.Fair.sat m (Ctl.atom "p") in
        List.exists
          (fun st -> not (Kripke.eval_in_state m p st))
          (Kripke.Trace.states tr))

(* The explainer over un-memoised ops: every [sat] re-runs
   [Ctl.Fair.sat], and the witness primitives rebuild their rings and
   hulls. *)
let unmemoised_ops m =
  let fair = Ctl.Fair.fair_states m in
  {
    Counterex.Explain.sat = Ctl.Fair.sat m;
    holds_at = (fun f st -> Kripke.eval_in_state m (Ctl.Fair.sat m f) st);
    fair = (fun set -> Bdd.and_ m.Kripke.man set fair);
    ex = (fun ~f ~start -> (Counterex.Witness.ex m ~f ~start).prefix);
    eu = (fun ~f ~g ~start -> (Counterex.Witness.eu m ~f ~g ~start).prefix);
    eg =
      (fun ~f ~start ->
        let tr = Counterex.Witness.eg m ~f ~start in
        (tr.prefix, tr.cycle));
  }

(* A trace run's result, or the explanation failure it raised. *)
let outcome run =
  match run () with
  | Some (tr : Kripke.Trace.t) -> Ok (Some (tr.prefix, tr.cycle))
  | None -> Ok None
  | exception
      ((Counterex.Explain.Cannot_explain _ | Counterex.Witness.No_witness _)
       as e) ->
    Error (Printexc.to_string e)

(* The unmemoised explainer's trace of [f] from the first initial state
   satisfying it. *)
let unmemoised m f () =
  let good = Bdd.and_ m.Kripke.man m.Kripke.init (Ctl.Fair.sat m f) in
  Option.map
    (fun st ->
      let prefix, cycle =
        Counterex.Explain.explain_with (unmemoised_ops m) f ~start:st
      in
      { Kripke.Trace.prefix; cycle })
    (Kripke.pick_state m good)

(* The memoised explainer gives the unmemoised one's traces, both over
   a fresh memo and over the memo a verdict filled; that verdict is
   [Ctl.Fair.holds]'s. *)
let prop_memo_matches_unmemoised =
  prop "memoised traces equal unmemoised ones" ~count:150 (with_formula ())
    (fun (rm, f) ->
      let m = rm.Models.sym in
      let decided () =
        let memo = Counterex.Explain.memo m in
        if Counterex.Explain.holds memo f = Ctl.Fair.holds m f then Some memo
        else QCheck2.Test.fail_report "the verdict through the memo differs"
      in
      let same explain g =
        let want = outcome (unmemoised m g) in
        outcome (fun () -> explain None) = want
        && outcome (fun () -> explain (decided ())) = want
      in
      same (fun memo -> Counterex.Explain.witness ?memo m f) f
      && same
           (fun memo -> Counterex.Explain.counterexample ?memo m f)
           (Ctl.Not f))

(* Two formulas around one [EU], on models with several initial
   states: as a spec (its rings stop once they cover the initial
   states), negated (once they meet them), or nested, where states
   beyond the initial ones ask for its whole set. *)
let shared_eu_gen =
  let open QCheck2.Gen in
  let contexts =
    [ Fun.id; Ctl.neg; (fun e -> Ctl.EX e); (fun e -> Ctl.EF e);
      (fun e -> Ctl.Or (Ctl.atom "p", e));
      (fun e -> Ctl.And (e, Ctl.atom "q"));
      (fun e -> Ctl.AX e); (fun e -> Ctl.AG e); (fun e -> Ctl.EG e);
      (fun e -> Ctl.AG (Ctl.neg e)) ]
  in
  let* rm = Models.random_model_gen ~nfair:2 ~ninit:3 () in
  let atom = map Ctl.atom (oneofl Models.atom_names) in
  let* a = oneof [ return Ctl.True; atom; Models.formula_gen ] in
  let* b = oneof [ atom; Models.formula_gen ] in
  let* c1 = oneofl contexts in
  let* c2 = oneofl contexts in
  let e = Ctl.EU (a, b) in
  return (rm, (c1 e, c2 e))

(* A verdict or a trace may stop an [EU]'s sweep short of its
   fixpoint; a later formula sharing that [EU] on the same memo still
   gets the eager verdict and trace, failures included, whether it
   runs after the first formula's traces or between its verdict and
   them. *)
let prop_shared_eu_matches_eager =
  prop "a formula sharing a stopped EU sweep gets the eager answers"
    ~count:300 shared_eu_gen (fun (rm, (f1, f2)) ->
      let m = rm.Models.sym in
      let verdict memo f =
        Counterex.Explain.holds memo f = Ctl.Fair.holds m f
        || QCheck2.Test.fail_reportf "verdict of %s" (Ctl.to_string f)
      in
      let traces memo f =
        (outcome (fun () -> Counterex.Explain.witness ~memo m f)
         = outcome (unmemoised m f)
         && outcome (fun () -> Counterex.Explain.counterexample ~memo m f)
            = outcome (unmemoised m (Ctl.Not f)))
        || QCheck2.Test.fail_reportf "traces of %s" (Ctl.to_string f)
      in
      let memo = Counterex.Explain.memo m in
      let interleaved = Counterex.Explain.memo m in
      verdict memo f1 && traces memo f1 && verdict memo f2 && traces memo f2
      && verdict interleaved f1 && verdict interleaved f2
      && traces interleaved f1 && traces interleaved f2)

(* ------------------------------------------------------------------ *)
(* Unit tests: the mutex starvation counterexample, end to end.        *)

let test_mutex_starvation_trace () =
  let { Models.m; t1; c1; _ } = Models.mutex () in
  let spec = Ctl.(AG (t1 ==> AF c1)) in
  match Counterex.Explain.counterexample m spec with
  | None -> Alcotest.fail "expected a counterexample"
  | Some tr ->
    Alcotest.(check bool) "valid path" true
      (Counterex.Validate.path_ok m tr = Ok ());
    Alcotest.(check bool) "is a lasso" true (Kripke.Trace.is_lasso tr);
    (* On the cycle: t1 holds and c1 never holds (starvation). *)
    let sat_t1 = Ctl.Fair.sat m t1 and sat_c1 = Ctl.Fair.sat m c1 in
    List.iter
      (fun st ->
        Alcotest.(check bool) "never critical on cycle" false
          (Kripke.eval_in_state m sat_c1 st))
      tr.Kripke.Trace.cycle;
    Alcotest.(check bool) "trying somewhere on trace" true
      (List.exists (Kripke.eval_in_state m sat_t1) (Kripke.Trace.states tr));
    (* Fairness constraints all hit on the cycle. *)
    List.iteri
      (fun k h ->
        Alcotest.(check bool)
          (Printf.sprintf "fairness %d hit" k)
          true
          (List.exists (Kripke.eval_in_state m h) tr.Kripke.Trace.cycle))
      m.Kripke.fairness

let test_mutex_safety_no_counterexample () =
  let { Models.m; c1; c2; _ } = Models.mutex () in
  let spec = Ctl.AG (Ctl.neg Ctl.(c1 &&& c2)) in
  Alcotest.(check bool) "no counterexample" true
    (Counterex.Explain.counterexample m spec = None)

let test_explain_rejects_false_formula () =
  let { Models.m; c1; _ } = Models.mutex () in
  match Kripke.pick_state m m.Kripke.init with
  | None -> Alcotest.fail "no init"
  | Some st ->
    (match Counterex.Explain.explain m c1 ~start:st with
    | _ -> Alcotest.fail "expected Cannot_explain"
    | exception Counterex.Explain.Cannot_explain _ -> ())

(* The junction rule of the shared recursion, on a toy representation
   (integer states, every set is everything): an EG continuation that
   is a pure cycle starting at the EX step's end keeps that state in
   the cycle only; one with a prefix is spliced without duplicating it. *)
let test_explain_with_junction () =
  let ops eg_prefix =
    {
      Counterex.Explain.sat = (fun _ -> ());
      holds_at = (fun _ _ -> true);
      fair = Fun.id;
      ex = (fun ~f:() ~start -> [ start; start + 1 ]);
      eu = (fun ~f:() ~g:() ~start -> [ start ]);
      eg =
        (fun ~f:() ~start ->
          if eg_prefix then ([ start ], [ start + 1 ])
          else ([], [ start; start + 1 ]));
    }
  in
  let f = Ctl.EX (Ctl.EG (Ctl.atom "p")) in
  let check name eg_prefix want =
    Alcotest.(check (pair (list int) (list int)))
      name want
      (Counterex.Explain.explain_with (ops eg_prefix) f ~start:0)
  in
  check "pure cycle at the junction" false ([ 0 ], [ 1; 2 ]);
  check "prefix from the junction" true ([ 0; 1 ], [ 2 ])

let test_ef_witness_on_counter () =
  let m = Models.counter 3 in
  let target = Ctl.(atom "b0" &&& atom "b1" &&& atom "b2") in
  match Counterex.Explain.witness m (Ctl.EF target) with
  | None -> Alcotest.fail "expected witness"
  | Some tr ->
    (* 000 -> 100 -> 010 -> ... -> 111 is 8 states. *)
    Alcotest.(check int) "shortest path to 111" 8 (Kripke.Trace.length tr);
    Alcotest.(check bool) "valid" true
      (Counterex.Validate.path_ok m tr = Ok ())

(* A witness descends the rings of the one fixpoint that decided its
   formula: after the verdict, an EF witness sweeps E[true U target]
   once, saving every layer it computes, and stops at the layer that
   holds the initial state 0000: Q_15, 15 iterations (none converges)
   for 16 layers. *)
let test_one_fixpoint_per_trace () =
  let m = Models.counter 4 in
  let spec = Ctl.EF Ctl.(atom "b0" &&& atom "b1" &&& atom "b2" &&& atom "b3") in
  Alcotest.(check bool) "verdict" true (Ctl.Fair.holds m spec);
  let before = Ctl.Check.fixpoint_stats () in
  (match Counterex.Explain.witness m spec with
  | None -> Alcotest.fail "expected witness"
  | Some tr ->
    Alcotest.(check int) "shortest path to 1111" 16 (Kripke.Trace.length tr));
  let after = Ctl.Check.fixpoint_stats () in
  Alcotest.(check int) "ring layers" 16
    (after.ring_layers - before.ring_layers);
  Alcotest.(check int) "EU iterations" 15
    (after.eu_iterations - before.eu_iterations)

(* A false [AG !t] whose initial state is two steps from [t] (the
   counter's state 2): the verdict stops its sweep E[true U t] at Q_2,
   the first layer that meets the initial state, instead of sweeping
   back round the counter's whole 16-state cycle. *)
let test_false_ag_stops_early () =
  let m = Models.counter 4 in
  let t = Ctl.(neg (atom "b0") &&& atom "b1" &&& neg (atom "b2") &&& neg (atom "b3")) in
  ignore (Ctl.Fair.fair_states m : Bdd.t);
  let memo = Counterex.Explain.memo m in
  let before = (Ctl.Check.fixpoint_stats ()).eu_iterations in
  Alcotest.(check bool) "verdict" false
    (Counterex.Explain.holds memo (Ctl.AG (Ctl.neg t)));
  let iterations = (Ctl.Check.fixpoint_stats ()).eu_iterations - before in
  Alcotest.(check bool)
    (Printf.sprintf "at most 3 EU iterations (ran %d)" iterations)
    true (iterations <= 3)

(* A verdict that a breach ends leaves its memo usable: a second
   [holds] on the same memo, unbudgeted, still decides the spec and the
   counterexample is the eager explainer's.  The breach is a cancel
   seen at the first poll, a step budget that stops the sweep short of
   the layer meeting the initial state, or a fault at each cache probe
   of the first [holds] in turn (where a poll would see a cancel or a
   passed deadline). *)
let test_breach_leaves_memo_usable () =
  let mx = Models.mutex () in
  let m = mx.m in
  let bman = m.Kripke.man in
  ignore (Ctl.Fair.fair_states m : Bdd.t);
  let usable name spec first =
    let memo = Counterex.Explain.memo m in
    let breached = first memo in
    Alcotest.(check bool) (name ^ ": decided after it")
      (Ctl.Fair.holds m spec)
      (Counterex.Explain.holds memo spec);
    Alcotest.(check bool) (name ^ ": the eager counterexample") true
      (outcome (fun () -> Counterex.Explain.counterexample ~memo m spec)
      = outcome (unmemoised m (Ctl.Not spec)));
    breached
  in
  let budgeted limits memo spec =
    match
      Bdd.Limits.with_attached bman limits (fun () ->
          Counterex.Explain.holds ~limits memo spec)
    with
    | _ -> false
    | exception Bdd.Limits.Exhausted _ -> true
  in
  let cancelled () =
    let l = Bdd.Limits.unlimited () in
    Bdd.Limits.cancel l;
    l
  in
  let ag = Ctl.AG (Ctl.neg mx.c1) and ef = Ctl.EF mx.c1 in
  List.iter
    (fun (name, spec, limits) ->
      Alcotest.(check bool) (name ^ ": breached") true
        (usable name spec (fun memo -> budgeted (limits ()) memo spec)))
    [ ("cancel, AG", ag, cancelled); ("cancel, EF", ef, cancelled);
      ("one step, AG", ag, fun () -> Bdd.Limits.create ~step_budget:1 ()) ];
  List.iter
    (fun spec ->
      let rec probe n =
        let name = Printf.sprintf "%s, fault at probe %d" (Ctl.to_string spec) n in
        let faulted memo =
          Bdd.Fault.arm bman ~site:Bdd.Fault.Cache_probe ~after:n;
          Fun.protect
            ~finally:(fun () -> Bdd.Fault.disarm bman)
            (fun () ->
              match Counterex.Explain.holds memo spec with
              | _ -> false
              | exception Out_of_memory -> true)
        in
        if usable name spec faulted then probe (n + 1)
      in
      probe 1)
    [ ag; ef; Ctl.AG (Ctl.neg Ctl.(mx.c1 &&& mx.c2)) ]

(* A memo shared with the verdict: the witness descends the rings the
   verdict's own EF sweep saved, so it runs no EU iteration at all. *)
let test_shared_memo_witness () =
  let m = Models.counter 4 in
  let spec = Ctl.EF Ctl.(atom "b0" &&& atom "b1" &&& atom "b2" &&& atom "b3") in
  let memo = Counterex.Explain.memo m in
  Alcotest.(check bool) "verdict" true (Counterex.Explain.holds memo spec);
  let before = Ctl.Check.fixpoint_stats () in
  (match Counterex.Explain.witness ~memo m spec with
  | None -> Alcotest.fail "expected witness"
  | Some tr ->
    Alcotest.(check int) "shortest path to 1111" 16 (Kripke.Trace.length tr));
  let after = Ctl.Check.fixpoint_stats () in
  Alcotest.(check int) "no EU iteration after the verdict" 0
    (after.eu_iterations - before.eu_iterations);
  Alcotest.check_raises "a memo on another model is refused"
    (Invalid_argument "Explain: the memo belongs to another model")
    (fun () -> ignore (Counterex.Explain.witness ~memo (Models.counter 4) spec))

let test_eg_stats_strategies () =
  (* A chain of two SCCs: states 0-1 form a cycle that cannot satisfy
     the fairness constraint {3}; 2-3 form a fair cycle reachable from
     0.  The first round anchors t in the first SCC and must restart. *)
  let g =
    Explicit.Egraph.make ~nstates:4
      ~edges:[ (0, 1); (1, 0); (0, 2); (2, 3); (3, 2) ]
      ~init:[ 0 ]
      ~fairness:[ Explicit.Egraph.mask_of_list ~nstates:4 [ 3 ] ]
      ()
  in
  let m, encode = Explicit.Bridge.to_kripke g in
  let start = encode 0 in
  let tr, stats =
    Counterex.Witness.eg_stats m ~f:m.Kripke.space ~start
  in
  Alcotest.(check bool) "valid witness" true
    (Counterex.Validate.eg_witness m ~f:m.Kripke.space tr = Ok ());
  Alcotest.(check bool) "at least one round" true (stats.Counterex.Witness.rounds >= 1)

(* From 0 the nearest constraint state is 1, a transient state the rest
   of the path cannot return to, so the first round anchors the cycle at
   t = 1 and fails to close; the construction must restart (into the
   fair SCC {2,3}). *)
let restart_graph () =
  Explicit.Bridge.to_kripke
    (Explicit.Egraph.make ~nstates:4
       ~edges:[ (0, 1); (1, 2); (2, 3); (3, 2) ]
       ~init:[ 0 ]
       ~fairness:[ Explicit.Egraph.mask_of_list ~nstates:4 [ 1; 3 ] ]
       ())

let test_eg_stats_restart_bound () =
  (* A zero restart budget is exceeded — and the exception carries the
     work done so far. *)
  let m, encode = restart_graph () in
  let start = encode 0 in
  (match
     Counterex.Witness.eg_stats m ~max_restarts:0 ~f:m.Kripke.space ~start
   with
  | _ -> Alcotest.fail "expected Restart_bound_exceeded"
  | exception Counterex.Witness.Restart_bound_exceeded
      { restarts; rounds; prefix } ->
    Alcotest.(check int) "restarts reported" 1 restarts;
    Alcotest.(check int) "rounds reported" 1 rounds;
    Alcotest.(check bool) "prefix preserved" true (prefix <> []));
  (* A generous budget succeeds on the same instance. *)
  let _, stats =
    Counterex.Witness.eg_stats m ~max_restarts:10 ~f:m.Kripke.space ~start
  in
  Alcotest.(check bool) "restarts within budget" true
    (stats.Counterex.Witness.restarts <= 10)

(* The failed round of the same instance is decided by the forward
   test alone, and the second round closes at its first layer: handed
   the fair EG's fixpoint, the lasso descends the rings of its last
   outer iteration and runs no EU iteration of its own. *)
let test_failed_round_runs_forward () =
  let m, encode = restart_graph () in
  let f = m.Kripke.space in
  let hull = Ctl.Fair.eg_rings m f in
  let before = Ctl.Check.fixpoint_stats () in
  let tr, stats = Counterex.Witness.eg_stats ~hull m ~f ~start:(encode 0) in
  let after = Ctl.Check.fixpoint_stats () in
  Alcotest.(check bool) "valid witness" true
    (Counterex.Validate.eg_witness m ~f tr = Ok ());
  Alcotest.(check int) "one restart" 1 stats.Counterex.Witness.restarts;
  Alcotest.(check int) "no EU iteration in the lasso" 0
    (after.eu_iterations - before.eu_iterations);
  Alcotest.(check bool) "forward iterations ran" true
    (after.forward_iterations > before.forward_iterations)

let suite =
  [
    prop_eg_restart;
    prop_eg_precompute;
    prop_eg_no_fairness;
    prop_eg_rejects_nonmembers;
    prop_eu_witness;
    prop_ex_witness;
    prop_heuristic_vs_minimal;
    prop_counterexample_exists_iff_fails;
    prop_witness_exists_iff_holds_somewhere;
    prop_ag_counterexample_reaches_violation;
    prop_memo_matches_unmemoised;
    prop_shared_eu_matches_eager;
    prop_eu_rings_until;
    prop_reaches_matches_rings;
    Alcotest.test_case "a breach keeps the layers built" `Quick
      test_breach_keeps_layers;
    Alcotest.test_case "mutex starvation counterexample" `Quick test_mutex_starvation_trace;
    Alcotest.test_case "mutex safety has no counterexample" `Quick test_mutex_safety_no_counterexample;
    Alcotest.test_case "explain rejects false formulas" `Quick test_explain_rejects_false_formula;
    Alcotest.test_case "explain_with junction rule" `Quick test_explain_with_junction;
    Alcotest.test_case "EF witness on counter" `Quick test_ef_witness_on_counter;
    Alcotest.test_case "one fixpoint per trace" `Quick test_one_fixpoint_per_trace;
    Alcotest.test_case "a false AG stops at the layer meeting init" `Quick
      test_false_ag_stops_early;
    Alcotest.test_case "a breach leaves the memo usable" `Quick
      test_breach_leaves_memo_usable;
    Alcotest.test_case "shared memo: no EU iteration after the verdict" `Quick
      test_shared_memo_witness;
    Alcotest.test_case "eg_stats two-SCC chain" `Quick test_eg_stats_strategies;
    Alcotest.test_case "eg_stats restart bound" `Quick
      test_eg_stats_restart_bound;
    Alcotest.test_case "a failed round is decided going forward" `Quick
      test_failed_round_runs_forward;
  ]

(* ------------------------------------------------------------------ *)
(* The validators reject corrupted traces (they are not vacuous).      *)

let prop_validator_rejects_corruption =
  prop "validators reject corrupted witnesses" ~count:100 (with_formula ())
    (fun (rm, af) ->
      let m = rm.Models.sym in
      let fset = Ctl.Fair.sat m af in
      let eg = Ctl.Fair.eg m fset in
      match Kripke.pick_state m eg with
      | None -> true (* nothing to corrupt *)
      | Some st ->
        let tr = Counterex.Witness.eg m ~f:fset ~start:st in
        (* corruption 1: drop the cycle — no longer a lasso *)
        let no_cycle = Kripke.Trace.finite (Kripke.Trace.states tr) in
        let r1 = Counterex.Validate.eg_witness m ~f:fset no_cycle <> Ok () in
        (* corruption 2: demand an impossible invariant *)
        let r2 =
          Counterex.Validate.eg_witness m ~f:(Bdd.zero m.Kripke.man) tr
          <> Ok ()
        in
        (* corruption 3: duplicate the first state at the front; the
           self-edge need not exist *)
        let first = Kripke.Trace.nth tr 0 in
        let doubled =
          Kripke.Trace.lasso
            ~prefix:(first :: tr.Kripke.Trace.prefix)
            ~cycle:tr.Kripke.Trace.cycle
        in
        let r3 =
          (* valid only if the first state really has a self loop *)
          Counterex.Validate.path_ok m doubled <> Ok ()
          || Kripke.eval_in_state m
               (Kripke.pre m (Kripke.state_to_bdd m first))
               first
        in
        r1 && r2 && r3)

let prop_witness_deterministic =
  prop "witness construction is deterministic" ~count:60 (with_formula ())
    (fun (rm, af) ->
      let m = rm.Models.sym in
      let fset = Ctl.Fair.sat m af in
      let eg = Ctl.Fair.eg m fset in
      match Kripke.pick_state m eg with
      | None -> true
      | Some st ->
        let t1 = Counterex.Witness.eg m ~f:fset ~start:st in
        let t2 = Counterex.Witness.eg m ~f:fset ~start:st in
        Kripke.Trace.states t1 = Kripke.Trace.states t2)

let test_au_counterexample () =
  (* A[p U q] fails on the counter: p never true, q never true ⇒ the
     counterexample demonstrates the negation. *)
  let m = Models.counter 2 in
  let spec = Ctl.AU (Ctl.atom "b0", Ctl.atom "b1") in
  (match Counterex.Explain.counterexample m spec with
  | Some tr ->
    Alcotest.(check bool) "path valid" true
      (Counterex.Validate.path_ok m tr = Ok ());
    Alcotest.(check bool) "starts at init" true
      (Counterex.Validate.starts_at m m.Kripke.init tr = Ok ())
  | None -> Alcotest.fail "expected AU counterexample");
  (* and a true AU has none: counter from 00 satisfies A[!b1 U b0]
     (b0 flips on the very first step). *)
  let holds_spec = Ctl.AU (Ctl.neg (Ctl.atom "b1"), Ctl.atom "b0") in
  Alcotest.(check bool) "true AU" true (Ctl.Check.holds m holds_spec);
  Alcotest.(check bool) "no counterexample for a true spec" true
    (Counterex.Explain.counterexample m holds_spec = None)

let suite =
  suite
  @ [
      prop_validator_rejects_corruption;
      prop_witness_deterministic;
      Alcotest.test_case "AU counterexample" `Quick test_au_counterexample;
    ]

(* A 10-bit counter (bit i toggles when all lower bits are 1, as in
   perfbench's witness-deep): the descent of its 960-state EF witness,
   from rings already swept, builds no node.  Each step is one walk of
   the relation and the next ring. *)
let test_descent_builds_no_node () =
  let bits = 10 and target = 959 in
  let m = Models.counter bits in
  let man = m.Kripke.man in
  let g =
    Bdd.conj man
      (List.init bits (fun i ->
           let b = Kripke.label m (Printf.sprintf "b%d" i) in
           if (target lsr i) land 1 = 1 then b else Bdd.not_ man b))
  in
  let f = m.Kripke.space in
  let rings = Ctl.Check.eu_rings m f g in
  let start = Option.get (Kripke.pick_state m m.Kripke.init) in
  Alcotest.(check bool) "bit order" true m.Kripke.bit_order;
  let before = Bdd.count_nodes m.Kripke.man in
  let tr = Counterex.Witness.eu ~rings m ~f ~g ~start in
  Alcotest.(check int) "nodes built by the descent" 0
    (Bdd.count_nodes m.Kripke.man - before);
  Alcotest.(check int) "witness length" (target + 1)
    (List.length tr.Kripke.Trace.prefix);
  Alcotest.(check bool) "witness validates" true
    (Counterex.Validate.eu_witness m ~f ~g tr = Ok ())

let suite =
  suite
  @ [ Alcotest.test_case "ring descent builds no node" `Quick
        test_descent_builds_no_node ]
