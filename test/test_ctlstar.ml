(* Tests for Section 7: the restricted CTL* class E /\ (GF p \/ FG q).

   The independent oracle enumerates all 2^n resolutions of the
   disjunctions explicitly: E(/\ (GF p \/ FG q)) holds iff for some
   choice the explicit fair-SCC analysis finds EF EG_{chosen p}(/\
   chosen q). *)

let prop name ?(count = 120) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* ------------------------------------------------------------------ *)
(* Classification.                                                     *)

let p = Ctlstar.Atom "p"
let q = Ctlstar.Atom "q"

let test_classify_gf () =
  match Ctlstar.classify (Ctlstar.gf p) with
  | [ [ { Ctlstar.gf_part = Some (Ctlstar.Atom "p"); fg_part = None } ] ] -> ()
  | _ -> Alcotest.fail "bad classification of GF p"

let test_classify_fg () =
  match Ctlstar.classify (Ctlstar.fg q) with
  | [ [ { Ctlstar.gf_part = None; fg_part = Some (Ctlstar.Atom "q") } ] ] -> ()
  | _ -> Alcotest.fail "bad classification of FG q"

let test_classify_disjunct_pair () =
  match Ctlstar.classify (Ctlstar.POr (Ctlstar.gf p, Ctlstar.fg q)) with
  | [ [ { Ctlstar.gf_part = Some _; fg_part = Some _ } ] ] -> ()
  | _ -> Alcotest.fail "bad classification of GF p \\/ FG q"

let test_classify_conjunction () =
  let f = Ctlstar.PAnd (Ctlstar.gf p, Ctlstar.fg q) in
  match Ctlstar.classify f with
  | [ [ _; _ ] ] -> ()
  | _ -> Alcotest.fail "bad classification of a conjunction"

let test_classify_top_disjunction () =
  (* (GF p /\ GF q) \/ FG q — two disjuncts. *)
  let f =
    Ctlstar.POr (Ctlstar.PAnd (Ctlstar.gf p, Ctlstar.gf q), Ctlstar.fg q)
  in
  match Ctlstar.classify f with
  | [ [ _; _ ]; [ _ ] ] -> ()
  | _ -> Alcotest.fail "bad classification of a disjunction of conjunctions"

let test_classify_unsupported () =
  List.iter
    (fun f ->
      match Ctlstar.classify f with
      | _ -> Alcotest.fail "expected Unsupported"
      | exception Ctlstar.Unsupported _ -> ())
    [
      Ctlstar.X (Ctlstar.State p);
      Ctlstar.State p;
      Ctlstar.U (Ctlstar.State p, Ctlstar.State q);
      Ctlstar.G (Ctlstar.State p);
      Ctlstar.F (Ctlstar.State p);
    ]

(* ------------------------------------------------------------------ *)
(* Semantics: oracle by explicit resolution enumeration.               *)

(* All ways of picking one branch per conjunct. *)
let rec resolutions = function
  | [] -> [ [] ]
  | c :: rest ->
    let tails = resolutions rest in
    List.concat_map (fun t -> [ `GF c :: t; `FG c :: t ]) tails

let explicit_check (g : Explicit.Egraph.t) conjuncts =
  let n = g.Explicit.Egraph.nstates in
  let top = Array.make n true in
  let result = Array.make n false in
  List.iter
    (fun resolution ->
      let qs =
        List.fold_left
          (fun acc choice ->
            match choice with
            | `FG (_, fg) -> Array.map2 ( && ) acc fg
            | `GF _ -> acc)
          top resolution
      in
      let ps =
        List.filter_map
          (function `GF (gf, _) -> Some gf | `FG _ -> None)
          resolution
      in
      let g' =
        Explicit.Egraph.make ~nstates:n
          ~edges:
            (List.concat
               (List.init n (fun v ->
                    Array.to_list
                      (Array.map (fun w -> (v, w)) g.Explicit.Egraph.succ.(v)))))
          ~init:g.Explicit.Egraph.init ~fairness:ps ()
      in
      let eg = Explicit.Ectl.fair_eg g' qs in
      let ef = Explicit.Ectl.eu g' top eg in
      Array.iteri (fun v b -> if b then result.(v) <- true) ef)
    (resolutions conjuncts);
  result

(* Random conjunct lists over the shared atoms, as explicit masks +
   symbolic sets. *)
let conjuncts_gen (rm : Models.random_model) =
  let open QCheck2.Gen in
  let n = rm.Models.graph.Explicit.Egraph.nstates in
  let subset = list_size (int_bound n) (int_bound (n - 1)) in
  let* k = int_range 0 3 in
  let* parts = list_repeat k (pair subset subset) in
  return
    (List.map
       (fun (gf_states, fg_states) ->
         let gf_mask = Explicit.Egraph.mask_of_list ~nstates:n gf_states in
         let fg_mask = Explicit.Egraph.mask_of_list ~nstates:n fg_states in
         let set_of states =
           let bman = rm.Models.sym.Kripke.man in
           Bdd.disj bman
             (List.map
                (fun i -> Kripke.state_to_bdd rm.Models.sym (rm.Models.encode i))
                (List.sort_uniq compare states))
         in
         ((gf_mask, fg_mask),
          { Ctlstar.Gffg.gf = set_of gf_states; fg = set_of fg_states }))
       parts)

let model_and_conjuncts =
  QCheck2.Gen.(Models.random_model_gen ~max_states:6 () >>= fun rm ->
               conjuncts_gen rm >|= fun cs -> (rm, cs))

let prop_check_vs_oracle =
  prop "Gffg.check agrees with explicit resolution enumeration"
    model_and_conjuncts
    (fun (rm, cs) ->
      let masks = List.map fst cs and sets = List.map snd cs in
      let symbolic = Ctlstar.Gffg.check rm.Models.sym sets in
      let explicit = explicit_check rm.Models.graph masks in
      Models.sets_agree rm symbolic explicit)

let prop_witness_validates =
  prop "Gffg witnesses validate" model_and_conjuncts
    (fun (rm, cs) ->
      let m = rm.Models.sym in
      let sets = List.map snd cs in
      let sat = Ctlstar.Gffg.check m sets in
      List.for_all
        (fun st ->
          let tr = Ctlstar.Gffg.witness m sets ~start:st in
          Ctlstar.Gffg.witness_ok m sets tr
          && Kripke.Trace.nth tr 0 = st)
        (Kripke.states_in m sat))

let prop_witness_refused_outside =
  prop "Gffg witness refused outside the satisfaction set"
    model_and_conjuncts
    (fun (rm, cs) ->
      let m = rm.Models.sym in
      let sets = List.map snd cs in
      let sat = Ctlstar.Gffg.check m sets in
      let outside = Bdd.diff m.Kripke.man m.Kripke.space sat in
      List.for_all
        (fun st ->
          match Ctlstar.Gffg.witness m sets ~start:st with
          | _ -> false
          | exception Counterex.Witness.No_witness _ -> true)
        (Kripke.states_in m outside))

let prop_resolution_length =
  prop "resolve returns one choice per conjunct" model_and_conjuncts
    (fun (rm, cs) ->
      let m = rm.Models.sym in
      let sets = List.map snd cs in
      let sat = Ctlstar.Gffg.check m sets in
      List.for_all
        (fun st ->
          List.length (Ctlstar.Gffg.resolve m sets ~start:st)
          = List.length sets)
        (Kripke.states_in m sat))

(* The lasso descends the rings of the fixpoint that found its target:
   resolving the disjunctions runs no fair EG, so a witness adds
   exactly the outer iterations of one fair EG on its reduced model. *)
let prop_witness_one_fair_fixpoint =
  prop "Gffg witness runs one fair EG fixpoint" model_and_conjuncts
    (fun (rm, cs) ->
      let m = rm.Models.sym in
      let bman = m.Kripke.man in
      let sets = List.map snd cs in
      let added k =
        let outer () = (Ctl.Fair.fixpoint_stats ()).Ctl.Fair.outer_iterations in
        let before = outer () in
        ignore (k ());
        outer () - before
      in
      List.for_all
        (fun st ->
          let ps, qs =
            List.fold_left2
              (fun (ps, qs) choice (c : Ctlstar.Gffg.conjunct) ->
                match choice with
                | Ctlstar.Gffg.Took_gf -> (c.gf :: ps, qs)
                | Ctlstar.Gffg.Took_fg -> (ps, Bdd.and_ bman qs c.fg))
              ([], m.Kripke.space)
              (Ctlstar.Gffg.resolve m sets ~start:st)
              sets
          in
          let reduced = Kripke.with_fairness m (List.rev ps) in
          added (fun () -> Ctlstar.Gffg.witness m sets ~start:st)
          = added (fun () -> Ctl.Fair.eg_rings reduced qs))
        (Kripke.states_in m (Ctlstar.Gffg.check m sets)))

(* ------------------------------------------------------------------ *)
(* check_state on formulas, against the CTL checker where they overlap. *)

let prop_e_gf_true_is_space =
  prop "E GF true holds everywhere (total models)"
    (Models.random_model_gen ())
    (fun rm ->
      let m = rm.Models.sym in
      let sat = Ctlstar.Gffg.check_state m (Ctlstar.E (Ctlstar.gf Ctlstar.True)) in
      Bdd.equal sat m.Kripke.space)

let prop_e_fg_matches_ctl =
  (* E FG p = EF EG p in CTL. *)
  prop "E FG p = EF EG p" (Models.random_model_gen ())
    (fun rm ->
      let m = rm.Models.sym in
      let star =
        Ctlstar.Gffg.check_state m (Ctlstar.E (Ctlstar.fg (Ctlstar.Atom "p")))
      in
      let ctl = Ctl.Check.sat m (Ctl.EF (Ctl.EG (Ctl.atom "p"))) in
      Bdd.equal star ctl)

let prop_a_dual =
  (* A GF p = !E FG !p. *)
  prop "A GF p = !(E FG !p)" (Models.random_model_gen ())
    (fun rm ->
      let m = rm.Models.sym in
      let lhs = Ctlstar.Gffg.check_state m (Ctlstar.A (Ctlstar.gf (Ctlstar.Atom "p"))) in
      let rhs =
        Bdd.diff m.Kripke.man m.Kripke.space
          (Ctlstar.Gffg.check_state m
             (Ctlstar.E (Ctlstar.fg (Ctlstar.Not (Ctlstar.Atom "p")))))
      in
      Bdd.equal lhs rhs)

let test_check_state_unsupported () =
  let rm_m = Models.counter 2 in
  match
    Ctlstar.Gffg.check_state rm_m
      (Ctlstar.E (Ctlstar.X (Ctlstar.State Ctlstar.True)))
  with
  | _ -> Alcotest.fail "expected Unsupported"
  | exception Ctlstar.Unsupported _ -> ()

let test_empty_conjuncts () =
  let m = Models.counter 2 in
  let sat = Ctlstar.Gffg.check m [] in
  Alcotest.(check bool) "E true = all states" true (Bdd.equal sat m.Kripke.space)

let test_false_conjunct () =
  let m = Models.counter 2 in
  let zero = Bdd.zero m.Kripke.man in
  let sat = Ctlstar.Gffg.check m [ { Ctlstar.Gffg.gf = zero; fg = zero } ] in
  Alcotest.(check bool) "E (GF false \\/ FG false) empty" true (Bdd.is_zero sat)

let suite =
  [
    Alcotest.test_case "classify GF" `Quick test_classify_gf;
    Alcotest.test_case "classify FG" `Quick test_classify_fg;
    Alcotest.test_case "classify GF|FG pair" `Quick test_classify_disjunct_pair;
    Alcotest.test_case "classify conjunction" `Quick test_classify_conjunction;
    Alcotest.test_case "classify disjunction of conjunctions" `Quick test_classify_top_disjunction;
    Alcotest.test_case "classify unsupported" `Quick test_classify_unsupported;
    prop_check_vs_oracle;
    prop_witness_validates;
    prop_witness_refused_outside;
    prop_resolution_length;
    prop_witness_one_fair_fixpoint;
    prop_e_gf_true_is_space;
    prop_e_fg_matches_ctl;
    prop_a_dual;
    Alcotest.test_case "check_state unsupported" `Quick test_check_state_unsupported;
    Alcotest.test_case "empty conjunct list" `Quick test_empty_conjuncts;
    Alcotest.test_case "false conjunct" `Quick test_false_conjunct;
  ]
