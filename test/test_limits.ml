(* Resource governance: budgets trip with the right structured breach
   and sane partial progress, cancellation works, and — crucially — a
   breach never corrupts the manager: re-running without limits
   afterwards gives exactly the verdict an undisturbed run gives. *)

let prop name ?(count = 60) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

let exhausted_info f =
  match f () with
  | _ -> Alcotest.fail "expected Bdd.Limits.Exhausted"
  | exception Bdd.Limits.Exhausted info -> info

(* ------------------------------------------------------------------ *)
(* Unit tests on the mutex model.                                      *)

let starvation (mx : Models.mutex) =
  Ctl.AG (Ctl.Imp (mx.Models.t1, Ctl.AF mx.Models.c1))

let test_deadline () =
  let mx = Models.mutex () in
  let m = mx.Models.m in
  let limits = Bdd.Limits.create ~timeout:1e-6 () in
  (* The budget is a microsecond; by the first poll it has passed. *)
  Unix.sleepf 0.002;
  let info =
    exhausted_info (fun () -> Ctl.Check.holds ~limits m (starvation mx))
  in
  (match info.Bdd.Limits.breach with
  | Bdd.Limits.Deadline { timeout; elapsed } ->
    Alcotest.(check (float 1e-9)) "requested timeout" 1e-6 timeout;
    Alcotest.(check bool) "elapsed past timeout" true (elapsed >= 1e-6)
  | b ->
    Alcotest.failf "wrong breach: %a" Bdd.Limits.pp_breach b);
  Alcotest.(check bool)
    "snapshot has live nodes" true
    (info.Bdd.Limits.stats.Bdd.live_nodes > 0);
  Alcotest.(check bool)
    "some progress recorded" true
    (info.Bdd.Limits.progress.Bdd.Limits.iterations >= 1)

let check_step_breach (info : Bdd.Limits.info) =
  (match info.Bdd.Limits.breach with
  | Bdd.Limits.Step_budget { budget; steps } ->
    Alcotest.(check int) "budget" 2 budget;
    Alcotest.(check bool) "steps exceed budget" true (steps > 2)
  | b -> Alcotest.failf "wrong breach: %a" Bdd.Limits.pp_breach b);
  Alcotest.(check int)
    "progress agrees with the breach"
    (match info.Bdd.Limits.breach with
    | Bdd.Limits.Step_budget { steps; _ } -> steps
    | _ -> assert false)
    info.Bdd.Limits.progress.Bdd.Limits.steps

let test_step_budget () =
  let mx = Models.mutex () in
  let m = mx.Models.m in
  let limits = Bdd.Limits.create ~step_budget:2 () in
  check_step_breach
    (exhausted_info (fun () -> Ctl.Check.holds ~limits m (starvation mx)))

(* The fair-EG fixpoint charges the budget too. *)
let test_step_budget_fair_eg () =
  let mx = Models.mutex () in
  let m = mx.Models.m in
  Kripke.set_fair_memo m None;
  let limits = Bdd.Limits.create ~step_budget:2 () in
  check_step_breach
    (exhausted_info (fun () -> Ctl.Fair.eg ~limits m m.Kripke.space))

(* An injected step fault simulates a deadline; its text must not
   depend on how long the check ran before the fault fired. *)
let test_injected_breach_text () =
  let mx = Models.mutex () in
  let m = mx.Models.m in
  List.iter
    (fun (timeout, expected) ->
      let limits = Bdd.Limits.create ?timeout () in
      Bdd.Fault.arm m.Kripke.man ~site:Bdd.Fault.Step ~after:1;
      Unix.sleepf 0.025;
      let info =
        exhausted_info (fun () -> Ctl.Check.holds ~limits m (starvation mx))
      in
      Bdd.Fault.disarm m.Kripke.man;
      Alcotest.(check string) "breach text" expected
        (Format.asprintf "%a" Bdd.Limits.pp_breach info.Bdd.Limits.breach))
    [
      (None, "timeout after 0.00s (limit 0s)");
      (Some 300., "timeout after 300.00s (limit 300s)");
    ]

let test_node_budget () =
  let mx = Models.mutex () in
  let m = mx.Models.m in
  let limits = Bdd.Limits.create ~node_budget:1 () in
  let info =
    exhausted_info (fun () ->
        Bdd.Limits.with_attached m.Kripke.man limits (fun () ->
            Ctl.Check.holds ~limits m (starvation mx)))
  in
  match info.Bdd.Limits.breach with
  | Bdd.Limits.Node_budget { budget; live } ->
    Alcotest.(check int) "budget" 1 budget;
    Alcotest.(check bool) "live count exceeds it" true (live > 1)
  | b -> Alcotest.failf "wrong breach: %a" Bdd.Limits.pp_breach b

let test_cancel () =
  let mx = Models.mutex () in
  let m = mx.Models.m in
  let limits = Bdd.Limits.unlimited () in
  Alcotest.(check bool) "not yet cancelled" false (Bdd.Limits.cancelled limits);
  Bdd.Limits.note_witness limits [ [| true |]; [| false |] ];
  Bdd.Limits.cancel limits;
  Alcotest.(check bool) "cancelled" true (Bdd.Limits.cancelled limits);
  let info =
    exhausted_info (fun () -> Ctl.Check.holds ~limits m (starvation mx))
  in
  (match info.Bdd.Limits.breach with
  | Bdd.Limits.Interrupted -> ()
  | b -> Alcotest.failf "wrong breach: %a" Bdd.Limits.pp_breach b);
  Alcotest.(check int)
    "witness prefix preserved" 2
    (List.length info.Bdd.Limits.progress.Bdd.Limits.witness_prefix)

let test_create_validation () =
  (match Bdd.Limits.create ~timeout:0.0 () with
  | _ -> Alcotest.fail "timeout 0 accepted"
  | exception Invalid_argument _ -> ());
  (match Bdd.Limits.create ~node_budget:0 () with
  | _ -> Alcotest.fail "node budget 0 accepted"
  | exception Invalid_argument _ -> ());
  match Bdd.Limits.create ~step_budget:(-3) () with
  | _ -> Alcotest.fail "negative step budget accepted"
  | exception Invalid_argument _ -> ()

let test_attach_restore () =
  let mx = Models.mutex () in
  let bman = mx.Models.m.Kripke.man in
  let outer = Bdd.Limits.unlimited () in
  let inner = Bdd.Limits.unlimited () in
  let is_attached l =
    match Bdd.Limits.attached bman with Some l' -> l' == l | None -> false
  in
  Bdd.Limits.attach bman outer;
  Bdd.Limits.with_attached bman inner (fun () ->
      Alcotest.(check bool) "inner attached" true (is_attached inner));
  Alcotest.(check bool) "outer restored" true (is_attached outer);
  (* restored across an exception too *)
  (try
     Bdd.Limits.with_attached bman inner (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool)
    "outer restored after raise" true (is_attached outer);
  Bdd.Limits.detach bman;
  Alcotest.(check bool) "detached" true (Bdd.Limits.attached bman = None)

(* ------------------------------------------------------------------ *)
(* Property: a breach never corrupts the manager.                      *)

let with_formula () =
  QCheck2.Gen.pair (Models.random_model_gen ~nfair:2 ()) Models.formula_gen

let prop_breach_preserves_verdict =
  prop "verdict is identical before and after a step-budget breach"
    (with_formula ())
    (fun (rm, f) ->
      let m = rm.Models.sym in
      let before_plain = Ctl.Check.sat m f in
      let before_fair = Ctl.Fair.sat m f in
      (* Trip a budget mid-computation (or finish: tiny formulas may
         need a single iteration; either way the state must be clean
         afterwards). *)
      let limits = Bdd.Limits.create ~step_budget:1 () in
      (try
         ignore
           (Bdd.Limits.with_attached m.Kripke.man limits (fun () ->
                Ctl.Fair.sat ~limits m f))
       with Bdd.Limits.Exhausted _ -> ());
      let after_plain = Ctl.Check.sat m f in
      let after_fair = Ctl.Fair.sat m f in
      Bdd.equal before_plain after_plain && Bdd.equal before_fair after_fair)

let prop_generous_limits_change_nothing =
  prop "generous limits leave every verdict unchanged"
    (with_formula ())
    (fun (rm, f) ->
      let m = rm.Models.sym in
      let unlimited = Ctl.Fair.sat m f in
      let limits = Bdd.Limits.create ~timeout:3600.0 ~step_budget:max_int () in
      let governed =
        Bdd.Limits.with_attached m.Kripke.man limits (fun () ->
            Ctl.Fair.sat ~limits m f)
      in
      Bdd.equal unlimited governed)

let suite =
  [
    Alcotest.test_case "deadline breach" `Quick test_deadline;
    Alcotest.test_case "step-budget breach" `Quick test_step_budget;
    Alcotest.test_case "step-budget breach inside fair EG" `Quick
      test_step_budget_fair_eg;
    Alcotest.test_case "node-budget breach" `Quick test_node_budget;
    Alcotest.test_case "injected step breach text" `Quick
      test_injected_breach_text;
    Alcotest.test_case "cancellation" `Quick test_cancel;
    Alcotest.test_case "create validates budgets" `Quick
      test_create_validation;
    Alcotest.test_case "attach/with_attached restore" `Quick
      test_attach_restore;
    prop_breach_preserves_verdict;
    prop_generous_limits_change_nothing;
  ]
