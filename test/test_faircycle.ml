(* Tests for the lock-step fair-cycle engine (--fair-engine lockstep):

   - verdict and fair-state-set identity against the Emerson-Lei
     engine (and against the explicit oracle) on random Kripke models
     with random fairness sets — the two engines must return the very
     same BDD, not just the same set;
   - engine-tagged memoisation: switching engines on a warm model
     recomputes rather than silently reusing the other engine's cached
     diagram, and a full server-style [Engine.check_one] under either
     engine prints byte-identical output;
   - witness reconciliation: lock-step onion-ring witnesses validate
     with [Counterex.Validate] and render byte-identically to
     Emerson-Lei ones;
   - the funnel discipline: limits breaches, auto-reorder sweeps and
     injected faults all fire *inside* the lock-step computation, and
     verdicts recover to the fault-free ones. *)

let prop name ?(count = 200) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let rm_and_formula ~nfair =
  QCheck2.Gen.pair (Models.random_model_gen ~nfair ()) Models.formula_gen

(* Random fairness-set counts: the nfair = 0 degenerate case (single
   implicit [true] constraint) must work too. *)
let rm_any_fair =
  let open QCheck2.Gen in
  int_bound 3 >>= fun nfair -> Models.random_model_gen ~nfair ()

(* ------------------------------------------------------------------ *)
(* Engine equivalence on random models                                 *)

let prop_fair_states_identical =
  prop "fair states: lockstep = el (same BDD)" ~count:300 rm_any_fair
    (fun rm ->
      let m = rm.Models.sym in
      let el = Ctl.Fair.fair_states ~engine:Ctl.Fair.El m in
      let ls = Ctl.Fair.fair_states ~engine:Ctl.Fair.Lockstep m in
      Bdd.equal el ls)

let prop_fair_states_vs_explicit =
  prop "lockstep fair states agree with explicit oracle" ~count:200
    (Models.random_model_gen ~nfair:3 ())
    (fun rm ->
      let symbolic =
        Ctl.Fair.fair_states ~engine:Ctl.Fair.Lockstep rm.Models.sym
      in
      let explicit = Explicit.Ectl.fair_states rm.Models.graph in
      Models.sets_agree rm symbolic explicit)

let prop_eg_identical =
  prop "fair EG: lockstep = el (same BDD)" ~count:250
    (QCheck2.Gen.pair rm_any_fair Models.formula_gen)
    (fun (rm, af) ->
      let m = rm.Models.sym in
      let f = Ctl.Check.sat m af in
      Bdd.equal
        (Ctl.Fair.eg ~engine:Ctl.Fair.El m f)
        (Ctl.Fair.eg ~engine:Ctl.Fair.Lockstep m f))

let prop_sat_identical =
  prop "full fair CTL: lockstep = el (same BDD)" ~count:250
    (rm_and_formula ~nfair:2)
    (fun (rm, f) ->
      let m = rm.Models.sym in
      (* Fresh memo per engine run: sat caches fair_states on the
         model, which is exactly what the tag must sort out. *)
      let el = Ctl.Fair.sat ~engine:Ctl.Fair.El m f in
      let ls = Ctl.Fair.sat ~engine:Ctl.Fair.Lockstep m f in
      Bdd.equal el ls)

let prop_rings_identical =
  prop "onion rings: lockstep hull yields identical layers" ~count:150
    (QCheck2.Gen.pair (Models.random_model_gen ~nfair:2 ()) Models.formula_gen)
    (fun (rm, af) ->
      let m = rm.Models.sym in
      let f = Ctl.Check.sat m af in
      let z_el, rings_el = Ctl.Fair.eg_with_rings ~engine:Ctl.Fair.El m f in
      let z_ls, rings_ls =
        Ctl.Fair.eg_with_rings ~engine:Ctl.Fair.Lockstep m f
      in
      Bdd.equal z_el z_ls
      && List.length rings_el = List.length rings_ls
      && List.for_all2
           (fun (a : Ctl.Fair.rings) (b : Ctl.Fair.rings) ->
             Bdd.equal a.Ctl.Fair.constr b.Ctl.Fair.constr
             && Array.length a.Ctl.Fair.layers = Array.length b.Ctl.Fair.layers
             && Array.for_all2 Bdd.equal a.Ctl.Fair.layers b.Ctl.Fair.layers)
           rings_el rings_ls)

(* ------------------------------------------------------------------ *)
(* Witness reconciliation                                              *)

let check_valid what = function
  | Ok () -> true
  | Error e ->
    QCheck2.Test.fail_reportf "%s: %a" what Counterex.Validate.pp_error e

let prop_lockstep_witness_validates =
  prop "lockstep fair EG witnesses validate (and match el's)" ~count:100
    (Models.random_model_gen ~nfair:2 ())
    (fun rm ->
      let m = rm.Models.sym in
      let z = Ctl.Fair.eg ~engine:Ctl.Fair.Lockstep m m.Kripke.space in
      match Kripke.pick_state m z with
      | None -> true (* no fair cycle anywhere: nothing to witness *)
      | Some start ->
        let tr_ls =
          Counterex.Witness.eg ~engine:Ctl.Fair.Lockstep m ~f:m.Kripke.space
            ~start
        in
        let tr_el =
          Counterex.Witness.eg ~engine:Ctl.Fair.El m ~f:m.Kripke.space ~start
        in
        let render tr = Format.asprintf "%a" (Kripke.Trace.pp m) tr in
        check_valid "lockstep eg witness"
          (Counterex.Validate.eg_witness m ~f:m.Kripke.space tr_ls)
        && String.equal (render tr_ls) (render tr_el))

(* ------------------------------------------------------------------ *)
(* Engine-tagged memo                                                  *)

let test_memo_retag () =
  let mx = Models.mutex () in
  let m = mx.Models.m in
  let bman = m.Kripke.man in
  Kripke.set_fair_memo m None;
  let el = Ctl.Fair.fair_states ~engine:Ctl.Fair.El m in
  (match Kripke.fair_memo m with
  | Some (_, "el") -> ()
  | Some (_, tag) -> Alcotest.failf "memo tagged %S, expected \"el\"" tag
  | None -> Alcotest.fail "memo not populated by El");
  (* Poison the memo with a wrong diagram under the El tag: an
     El-engine call must (wrongly, but that is the cache contract)
     serve it, while a Lockstep call must see the tag mismatch and
     recompute the true set instead of trusting the poison. *)
  Kripke.set_fair_memo m (Some (Bdd.zero bman, "el"));
  Alcotest.(check bool) "el serves the cached diagram" true
    (Bdd.is_zero (Ctl.Fair.fair_states ~engine:Ctl.Fair.El m));
  let ls = Ctl.Fair.fair_states ~engine:Ctl.Fair.Lockstep m in
  Alcotest.(check bool) "lockstep recomputed past the poison" true
    (Bdd.equal ls el);
  (match Kripke.fair_memo m with
  | Some (_, "lockstep") -> ()
  | Some (_, tag) -> Alcotest.failf "memo tagged %S, expected \"lockstep\"" tag
  | None -> Alcotest.fail "memo not repopulated by Lockstep");
  Kripke.set_fair_memo m None

(* Server warm-reuse: the same warm model checked under each engine
   must print byte-identical output (the server's byte-identity
   contract), while the memo flips tags — proving the second request
   recomputed rather than silently reusing the first engine's cache. *)
let test_server_warm_switch () =
  let mx = Models.mutex () in
  let m = mx.Models.m in
  Kripke.set_fair_memo m None;
  let spec = ("starvation", Ctl.AG (Ctl.Imp (mx.Models.t1, Ctl.AF mx.Models.c1))) in
  let opts engine =
    { Server.Engine.default with fair_engine = engine; certify = true }
  in
  let run engine =
    let buf = Buffer.create 256 in
    let ppf = Format.formatter_of_buffer buf in
    let r =
      Server.Engine.check_one ppf m ~opts:(opts engine)
        ~cancel:(Atomic.make false)
        ~clusters:(fun () -> [])
        spec
    in
    Format.pp_print_flush ppf ();
    (r.Server.Engine.verdict, Buffer.contents buf)
  in
  let v_el, out_el = run Ctl.Fair.El in
  (match Kripke.fair_memo m with
  | Some (_, "el") -> ()
  | _ -> Alcotest.fail "warm model not tagged el after El check");
  let v_ls, out_ls = run Ctl.Fair.Lockstep in
  (match Kripke.fair_memo m with
  | Some (_, "lockstep") -> ()
  | _ -> Alcotest.fail "warm model not retagged by the Lockstep check");
  Alcotest.(check bool) "verdicts equal" true (v_el = v_ls);
  Alcotest.(check string) "byte-identical output" out_el out_ls;
  Kripke.set_fair_memo m None

(* ------------------------------------------------------------------ *)
(* Funnel discipline: limits, auto-reorder, faults inside lock-step    *)

let test_limits_breach_inside_lockstep () =
  let mx = Models.mutex () in
  let m = mx.Models.m in
  let limits = Bdd.Limits.create ~step_budget:2 () in
  match Ctl.Fair.eg ~limits ~engine:Ctl.Fair.Lockstep m m.Kripke.space with
  | _ -> Alcotest.fail "expected a step-budget breach inside lock-step"
  | exception Bdd.Limits.Exhausted info ->
    (match info.Bdd.Limits.breach with
    | Bdd.Limits.Step_budget { budget; steps } ->
      Alcotest.(check int) "budget" 2 budget;
      Alcotest.(check bool) "steps exceed budget" true (steps > 2)
    | b -> Alcotest.failf "wrong breach: %a" Bdd.Limits.pp_breach b)

let test_auto_reorder_inside_lockstep () =
  let mx = Models.mutex () in
  let m = mx.Models.m in
  let man = m.Kripke.man in
  let clean = Ctl.Fair.eg ~engine:Ctl.Fair.Lockstep m m.Kripke.space in
  let before = (Bdd.stats man).Bdd.reorders in
  Bdd.Reorder.set_auto man (Some 1);
  let sifted =
    Fun.protect
      ~finally:(fun () -> Bdd.Reorder.set_auto man None)
      (fun () ->
        Bdd.Reorder.with_checkpoints man (fun () ->
            Ctl.Fair.eg ~engine:Ctl.Fair.Lockstep m m.Kripke.space))
  in
  let after = (Bdd.stats man).Bdd.reorders in
  Alcotest.(check bool) "a sweep fired inside lock-step" true (after > before);
  Alcotest.(check bool) "result unchanged by the sweep" true
    (Bdd.equal clean sifted)

(* A reorder fault fired from a lock-step checkpoint (mid-sift abort)
   must surface as the documented exception, leave the manager sound,
   and the retried verdict must match the clean one. *)
let test_midsift_abort_inside_lockstep () =
  let mx = Models.mutex () in
  let m = mx.Models.m in
  let man = m.Kripke.man in
  let clean = Ctl.Fair.eg ~engine:Ctl.Fair.Lockstep m m.Kripke.space in
  Bdd.Reorder.set_auto man (Some 1);
  Bdd.Fault.arm man ~site:Bdd.Fault.Reorder ~after:1;
  (match
     Bdd.Reorder.with_checkpoints man (fun () ->
         Ctl.Fair.eg ~engine:Ctl.Fair.Lockstep m m.Kripke.space)
   with
  | _ -> ()  (* the fault may land after convergence on tiny models *)
  | exception Out_of_memory -> ());
  Bdd.Fault.disarm man;
  Bdd.Reorder.set_auto man None;
  let retried = Ctl.Fair.eg ~engine:Ctl.Fair.Lockstep m m.Kripke.space in
  Alcotest.(check bool) "verdict stable after mid-sift abort" true
    (Bdd.equal clean retried)

let sites =
  [
    Bdd.Fault.Mk;
    Bdd.Fault.Cache_probe;
    Bdd.Fault.Gc;
    Bdd.Fault.Step;
    Bdd.Fault.Reorder;
  ]

(* Fault-site sweep under the lock-step engine, mirroring the chaos
   suite: a fault anywhere inside the computation is contained (the
   documented exceptions only) and the post-recovery verdict matches
   the fault-free one. *)
let test_fault_sweep_lockstep () =
  let mx = Models.mutex () in
  let m = mx.Models.m in
  let man = m.Kripke.man in
  let spec = Ctl.AG (Ctl.Imp (mx.Models.t1, Ctl.AF mx.Models.c1)) in
  Kripke.set_fair_memo m None;
  let clean = Ctl.Fair.holds ~engine:Ctl.Fair.Lockstep m spec in
  List.iter
    (fun site ->
      List.iter
        (fun after ->
          Kripke.set_fair_memo m None;
          Bdd.Fault.arm man ~site ~after;
          let limits = Bdd.Limits.create ~timeout:3600.0 () in
          (match
             Bdd.Limits.with_attached man limits (fun () ->
                 Ctl.Fair.holds ~limits ~engine:Ctl.Fair.Lockstep m spec)
           with
          | got ->
            (* The fault never fired (site not reached with this
               count): the verdict must simply be right. *)
            Alcotest.(check bool) "verdict (fault unfired)" clean got
          | exception Out_of_memory -> ()
          | exception Bdd.Limits.Exhausted _ -> ()
          | exception e ->
            Alcotest.failf "unexpected escape at site %s: %s"
              (Bdd.Fault.site_to_string site)
              (Printexc.to_string e));
          Bdd.Fault.disarm man;
          Kripke.set_fair_memo m None;
          let retried = Ctl.Fair.holds ~engine:Ctl.Fair.Lockstep m spec in
          Alcotest.(check bool)
            (Printf.sprintf "verdict after fault (site %s, after %d)"
               (Bdd.Fault.site_to_string site)
               after)
            clean retried)
        [ 1; 5; 50 ])
    sites;
  Kripke.set_fair_memo m None

let suite =
  [
    prop_fair_states_identical;
    prop_fair_states_vs_explicit;
    prop_eg_identical;
    prop_sat_identical;
    prop_rings_identical;
    prop_lockstep_witness_validates;
    Alcotest.test_case "memo retags on engine switch" `Quick test_memo_retag;
    Alcotest.test_case "server warm model switches engines" `Quick
      test_server_warm_switch;
    Alcotest.test_case "limits breach inside lock-step" `Quick
      test_limits_breach_inside_lockstep;
    Alcotest.test_case "auto-reorder fires inside lock-step" `Quick
      test_auto_reorder_inside_lockstep;
    Alcotest.test_case "mid-sift abort inside lock-step" `Quick
      test_midsift_abort_inside_lockstep;
    Alcotest.test_case "fault-site sweep (lock-step)" `Quick
      test_fault_sweep_lockstep;
  ]
