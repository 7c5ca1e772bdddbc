(* Tests for CTL syntax, parsing, and the symbolic checkers, including
   the cross-validation property: symbolic checker vs the explicit EMC
   oracle on random models. *)

let prop name ?(count = 200) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* ------------------------------------------------------------------ *)
(* Syntax: ENF, printing, parsing.                                     *)

let test_enf_ag () =
  let f = Ctl.AG (Ctl.atom "p") in
  (match Ctl.enf f with
  | Ctl.Not (Ctl.EU (Ctl.True, Ctl.Not (Ctl.Atom "p"))) -> ()
  | g -> Alcotest.failf "unexpected ENF: %s" (Ctl.to_string g))

let test_enf_au () =
  match Ctl.enf (Ctl.AU (Ctl.atom "p", Ctl.atom "q")) with
  | Ctl.And (Ctl.Not (Ctl.EU _), Ctl.Not (Ctl.EG _)) -> ()
  | g -> Alcotest.failf "unexpected ENF: %s" (Ctl.to_string g)

let test_push_neg_removes_double () =
  let f = Ctl.Not (Ctl.Not (Ctl.atom "p")) in
  (match Ctl.push_neg f with
  | Ctl.Atom "p" -> ()
  | g -> Alcotest.failf "unexpected: %s" (Ctl.to_string g))

let test_push_neg_demorgan () =
  let f = Ctl.Not (Ctl.And (Ctl.atom "p", Ctl.atom "q")) in
  (match Ctl.push_neg f with
  | Ctl.Or (Ctl.Not (Ctl.Atom "p"), Ctl.Not (Ctl.Atom "q")) -> ()
  | g -> Alcotest.failf "unexpected: %s" (Ctl.to_string g))

let test_atoms () =
  let f = Ctl.Parse.formula "AG (req -> AF ack) & EX req" in
  Alcotest.(check (list string)) "atoms" [ "ack"; "req" ] (Ctl.atoms f)

let test_parse_basic () =
  let f = Ctl.Parse.formula "AG (tr1 -> AF ta1)" in
  (match f with
  | Ctl.AG (Ctl.Imp (Ctl.Atom "tr1", Ctl.AF (Ctl.Atom "ta1"))) -> ()
  | g -> Alcotest.failf "unexpected parse: %s" (Ctl.to_string g))

let test_parse_until () =
  match Ctl.Parse.formula "E [p U q] | A [q U p]" with
  | Ctl.Or (Ctl.EU (Ctl.Atom "p", Ctl.Atom "q"), Ctl.AU (Ctl.Atom "q", Ctl.Atom "p")) -> ()
  | g -> Alcotest.failf "unexpected parse: %s" (Ctl.to_string g)

let test_parse_precedence () =
  (* & binds tighter than |, -> is right associative and loosest. *)
  match Ctl.Parse.formula "p & q | r -> p" with
  | Ctl.Imp (Ctl.Or (Ctl.And (Ctl.Atom "p", Ctl.Atom "q"), Ctl.Atom "r"), Ctl.Atom "p") -> ()
  | g -> Alcotest.failf "unexpected parse: %s" (Ctl.to_string g)

let test_parse_errors () =
  List.iter
    (fun input ->
      match Ctl.Parse.formula_opt input with
      | Ok f -> Alcotest.failf "%S parsed as %s" input (Ctl.to_string f)
      | Error _ -> ())
    [ ""; "p &"; "E p U q"; "(p"; "p )"; "AG"; "E [p U]"; "p q"; "#" ]

let test_parse_signal_names () =
  match Ctl.Parse.formula "AG (ur-1 -> AF ua.1)" with
  | Ctl.AG (Ctl.Imp (Ctl.Atom "ur-1", Ctl.AF (Ctl.Atom "ua.1"))) -> ()
  | g -> Alcotest.failf "unexpected parse: %s" (Ctl.to_string g)

let prop_pp_parse_roundtrip =
  prop "pp then parse is the identity" Models.formula_gen (fun f ->
      let printed = Ctl.to_string f in
      match Ctl.Parse.formula_opt printed with
      | Error msg -> QCheck2.Test.fail_reportf "%s on %s" msg printed
      | Ok g -> g = f)

(* ------------------------------------------------------------------ *)
(* Checker unit tests on known models.                                 *)

let mux = lazy (Models.mutex ())

let check_holds ?(fair = false) name expected formula =
  let { Models.m; _ } = Lazy.force mux in
  let holds = if fair then Ctl.Fair.holds m formula else Ctl.Check.holds m formula in
  Alcotest.(check bool) name expected holds

let test_mutex_safety () =
  let { Models.c1; c2; _ } = Lazy.force mux in
  check_holds "mutual exclusion" true (Ctl.AG (Ctl.neg Ctl.(c1 &&& c2)));
  check_holds ~fair:true "mutual exclusion (fair)" true
    (Ctl.AG (Ctl.neg Ctl.(c1 &&& c2)))

let test_mutex_possibility () =
  let { Models.c1; c2; _ } = Lazy.force mux in
  check_holds "c1 possible" true (Ctl.EF c1);
  check_holds "c2 possible" true (Ctl.EF c2);
  check_holds ~fair:true "c1 possible (fair)" true (Ctl.EF c1)

let test_mutex_liveness_unfair () =
  (* Without fairness the scheduler may ignore process 1 forever. *)
  let { Models.t1; c1; _ } = Lazy.force mux in
  check_holds "liveness fails unfair" false Ctl.(AG (t1 ==> AF c1))

let test_mutex_liveness_fair_still_fails () =
  (* Even under the scheduling fairness constraints process 1 starves
     when process 2 never requests: turn stays with process 2. *)
  let { Models.t1; c1; _ } = Lazy.force mux in
  check_holds ~fair:true "starvation scenario" false Ctl.(AG (t1 ==> AF c1))

let test_mutex_ag_ef () =
  (* Reset property: from anywhere, the system can reach a state where
     process 1 is critical (under fair scheduling). *)
  let { Models.c1; _ } = Lazy.force mux in
  check_holds ~fair:true "AG EF c1" true (Ctl.AG (Ctl.EF c1))

let test_unknown_atom () =
  let { Models.m; _ } = Lazy.force mux in
  Alcotest.check_raises "unknown atom" (Ctl.Check.Unknown_atom "nope")
    (fun () -> ignore (Ctl.Check.sat m (Ctl.atom "nope")))

let test_counter_next () =
  let m = Models.counter 3 in
  (* After three steps from 000 the counter reads 110 (value 3):
     AX AX AX (b0 & b1 & !b2) starting state is deterministic. *)
  let f = Ctl.(AX (AX (AX (atom "b0" &&& atom "b1" &&& neg (atom "b2"))))) in
  Alcotest.(check bool) "three increments" true (Ctl.Check.holds m f);
  let wrong = Ctl.(AX (AX (AX (atom "b2")))) in
  Alcotest.(check bool) "not yet 4" false (Ctl.Check.holds m wrong)

let test_counter_inevitable_wrap () =
  let m = Models.counter 3 in
  let all_set = Ctl.(atom "b0" &&& atom "b1" &&& atom "b2") in
  Alcotest.(check bool) "AF 111" true (Ctl.Check.holds m (Ctl.AF all_set));
  Alcotest.(check bool) "AG AF 111" true
    (Ctl.Check.holds m (Ctl.AG (Ctl.AF all_set)))

(* ------------------------------------------------------------------ *)
(* Cross-validation against the explicit oracle.                       *)

let rm_and_formula ~nfair =
  QCheck2.Gen.pair (Models.random_model_gen ~nfair ()) Models.formula_gen

let prop_symbolic_vs_explicit =
  prop "symbolic CTL = explicit CTL (no fairness)" ~count:300
    (rm_and_formula ~nfair:0)
    (fun (rm, f) ->
      let symbolic = Ctl.Check.sat rm.Models.sym f in
      let explicit = Explicit.Ectl.sat rm.Models.graph ~atom:rm.Models.atom_mask f in
      Models.sets_agree rm symbolic explicit)

let prop_symbolic_vs_explicit_fair =
  prop "fair symbolic CTL = fair explicit CTL" ~count:300
    (rm_and_formula ~nfair:2)
    (fun (rm, f) ->
      let symbolic = Ctl.Fair.sat rm.Models.sym f in
      let explicit =
        Explicit.Ectl.sat_fair rm.Models.graph ~atom:rm.Models.atom_mask f
      in
      Models.sets_agree rm symbolic explicit)

let prop_fair_states_vs_explicit =
  prop "fair state sets agree" ~count:200
    (Models.random_model_gen ~nfair:3 ())
    (fun rm ->
      let symbolic = Ctl.Fair.fair_states rm.Models.sym in
      let explicit = Explicit.Ectl.fair_states rm.Models.graph in
      Models.sets_agree rm symbolic explicit)

(* The fair-states set is memoised on the model, and a later call
   serves the cached diagram rather than recomputing it: poisoning the
   memo with [zero] must show through. *)
let test_fair_memo () =
  let mx = Models.mutex () in
  let m = mx.Models.m in
  Kripke.set_fair_memo m None;
  let fair = Ctl.Fair.fair_states m in
  (match Kripke.fair_memo m with
  | Some z ->
    Alcotest.(check bool) "memo holds the computed set" true (Bdd.equal z fair)
  | None -> Alcotest.fail "memo not populated by fair_states");
  Kripke.set_fair_memo m (Some (Bdd.zero m.Kripke.man));
  Alcotest.(check bool) "the cached diagram is served" true
    (Bdd.is_zero (Ctl.Fair.fair_states m));
  Kripke.set_fair_memo m None;
  Alcotest.(check bool) "a cleared memo recomputes" true
    (Bdd.equal (Ctl.Fair.fair_states m) fair);
  Kripke.set_fair_memo m None

let prop_rings_last_is_eu =
  prop "last onion ring equals the EU set" ~count:100
    (QCheck2.Gen.pair (Models.random_model_gen ()) (QCheck2.Gen.pair Models.formula_gen Models.formula_gen))
    (fun (rm, (af, ag)) ->
      let m = rm.Models.sym in
      let f = Ctl.Check.sat m af and g = Ctl.Check.sat m ag in
      let rings = Ctl.Check.eu_rings m f g in
      let eu = Ctl.Check.eu m f g in
      Bdd.equal rings.(Array.length rings - 1) eu)

let prop_rings_monotone =
  prop "onion rings increase" ~count:100
    (QCheck2.Gen.pair (Models.random_model_gen ()) Models.formula_gen)
    (fun (rm, af) ->
      let m = rm.Models.sym in
      let f = Ctl.Check.sat m af in
      let g = Ctl.Check.sat m (Ctl.EX af) in
      let rings = Ctl.Check.eu_rings m f g in
      let ok = ref true in
      for i = 0 to Array.length rings - 2 do
        if not (Bdd.subset m.Kripke.man rings.(i) rings.(i + 1)) then ok := false
      done;
      !ok)

let prop_fair_eg_subset_eg =
  prop "fair EG is a subset of EG" ~count:150
    (QCheck2.Gen.pair (Models.random_model_gen ~nfair:2 ()) Models.formula_gen)
    (fun (rm, af) ->
      let m = rm.Models.sym in
      let f = Ctl.Check.sat m af in
      Bdd.subset m.Kripke.man (Ctl.Fair.eg m f) (Ctl.Check.eg m f))

let suite =
  [
    Alcotest.test_case "enf AG" `Quick test_enf_ag;
    Alcotest.test_case "enf AU" `Quick test_enf_au;
    Alcotest.test_case "push_neg double negation" `Quick test_push_neg_removes_double;
    Alcotest.test_case "push_neg de morgan" `Quick test_push_neg_demorgan;
    Alcotest.test_case "atoms" `Quick test_atoms;
    Alcotest.test_case "parse basic" `Quick test_parse_basic;
    Alcotest.test_case "parse until" `Quick test_parse_until;
    Alcotest.test_case "parse precedence" `Quick test_parse_precedence;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "parse signal names" `Quick test_parse_signal_names;
    prop_pp_parse_roundtrip;
    Alcotest.test_case "mutex safety" `Quick test_mutex_safety;
    Alcotest.test_case "mutex possibility" `Quick test_mutex_possibility;
    Alcotest.test_case "mutex liveness unfair" `Quick test_mutex_liveness_unfair;
    Alcotest.test_case "mutex starvation (fair)" `Quick test_mutex_liveness_fair_still_fails;
    Alcotest.test_case "mutex AG EF" `Quick test_mutex_ag_ef;
    Alcotest.test_case "unknown atom" `Quick test_unknown_atom;
    Alcotest.test_case "counter AX chain" `Quick test_counter_next;
    Alcotest.test_case "counter AF wrap" `Quick test_counter_inevitable_wrap;
    prop_symbolic_vs_explicit;
    prop_symbolic_vs_explicit_fair;
    prop_fair_states_vs_explicit;
    Alcotest.test_case "fair-states memo serves the cache" `Quick
      test_fair_memo;
    prop_rings_last_is_eu;
    prop_rings_monotone;
    prop_fair_eg_subset_eg;
  ]

(* ------------------------------------------------------------------ *)
(* Fixpoint algebra: idempotence and unfolding laws.                   *)

let prop_ef_idempotent =
  prop "EF (EF f) = EF f" ~count:150
    (rm_and_formula ~nfair:0)
    (fun (rm, f) ->
      let m = rm.Models.sym in
      Bdd.equal
        (Ctl.Check.sat m (Ctl.EF (Ctl.EF f)))
        (Ctl.Check.sat m (Ctl.EF f)))

let prop_eg_idempotent =
  prop "EG (EG f) = EG f" ~count:150
    (rm_and_formula ~nfair:0)
    (fun (rm, f) ->
      let m = rm.Models.sym in
      Bdd.equal
        (Ctl.Check.sat m (Ctl.EG (Ctl.EG f)))
        (Ctl.Check.sat m (Ctl.EG f)))

let prop_eu_unfolding =
  prop "E[f U g] = g \\/ (f /\\ EX E[f U g])" ~count:150
    (QCheck2.Gen.pair (Models.random_model_gen ())
       (QCheck2.Gen.pair Models.formula_gen Models.formula_gen))
    (fun (rm, (f, g)) ->
      let m = rm.Models.sym in
      let eu = Ctl.Check.sat m (Ctl.EU (f, g)) in
      let unfolded =
        Ctl.Check.sat m Ctl.(Or (g, And (f, EX (Pred eu))))
      in
      Bdd.equal eu unfolded)

let prop_eg_unfolding =
  prop "EG f = f /\\ EX EG f" ~count:150
    (rm_and_formula ~nfair:0)
    (fun (rm, f) ->
      let m = rm.Models.sym in
      let eg = Ctl.Check.sat m (Ctl.EG f) in
      Bdd.equal eg (Ctl.Check.sat m Ctl.(And (f, EX (Pred eg)))))

let prop_fair_eg_unfolding =
  (* the fair gfp is a fixpoint of its own functional *)
  prop "fair EG f is a fixpoint" ~count:100
    (rm_and_formula ~nfair:2)
    (fun (rm, af) ->
      let m = rm.Models.sym in
      let f = Ctl.Fair.sat m af in
      let z = Ctl.Fair.eg m f in
      let step =
        List.fold_left
          (fun acc h ->
            let reach = Ctl.Check.eu m f (Bdd.and_ m.Kripke.man z h) in
            Bdd.and_ m.Kripke.man acc (Ctl.Check.ex m reach))
          f
          (Ctl.Fair.constraints m)
      in
      Bdd.equal z (Bdd.and_ m.Kripke.man z step))

let prop_fair_semantics_vacuous_without_fair_path =
  (* States with no fair successor path satisfy no fair EX. *)
  prop "fair EX f implies a fair continuation" ~count:100
    (rm_and_formula ~nfair:2)
    (fun (rm, af) ->
      let m = rm.Models.sym in
      let f = Ctl.Fair.sat m af in
      Bdd.subset m.Kripke.man (Ctl.Fair.ex m f)
        (Ctl.Check.ex m (Ctl.Fair.fair_states m)))

let suite =
  suite
  @ [
      prop_ef_idempotent;
      prop_eg_idempotent;
      prop_eu_unfolding;
      prop_eg_unfolding;
      prop_fair_eg_unfolding;
      prop_fair_semantics_vacuous_without_fair_path;
    ]
