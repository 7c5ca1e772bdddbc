(* Unit tests for the independent trace validator (Counterex.Validate)
   and the recursive trace certifier built on it (Robust.Certify).

   The validator is the foundation of --certify and of recovered-
   verdict certification, so every error constructor is driven here
   from a hand-built bad trace; the closing properties check that
   traces the generators actually produce always certify. *)

let prop name ?(count = 100) gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* The deterministic 3-bit counter: state k steps to k+1 mod 8, every
   boolean assignment is a legal state, so bad traces are easy to
   fabricate bit by bit. *)
let counter = lazy (Models.counter 3)

let enc k = [| k land 1 <> 0; k land 2 <> 0; k land 4 <> 0 |]

let err_name = function
  | Counterex.Validate.Empty_trace -> "Empty_trace"
  | Counterex.Validate.Broken_transition _ -> "Broken_transition"
  | Counterex.Validate.Broken_loop -> "Broken_loop"
  | Counterex.Validate.State_outside _ -> "State_outside"
  | Counterex.Validate.Missing_fairness _ -> "Missing_fairness"

let expect_error what expected = function
  | Ok () -> Alcotest.failf "%s: expected %s, trace validated" what expected
  | Error e ->
    Alcotest.(check string) what expected (err_name e)

let test_empty_trace () =
  let m = Lazy.force counter in
  expect_error "path_ok on the empty trace" "Empty_trace"
    (Counterex.Validate.path_ok m (Kripke.Trace.finite []));
  expect_error "eu_witness on the empty trace" "Empty_trace"
    (Counterex.Validate.eu_witness m ~f:m.Kripke.space ~g:m.Kripke.space
       (Kripke.Trace.finite []))

let test_broken_transition () =
  let m = Lazy.force counter in
  (* 0 -> 0 is not a counter step (bit 0 always flips). *)
  expect_error "stuttering step" "Broken_transition"
    (Counterex.Validate.path_ok m (Kripke.Trace.finite [ enc 0; enc 0 ]));
  (* 0 -> 1 -> 5 skips states. *)
  expect_error "skipped state" "Broken_transition"
    (Counterex.Validate.path_ok m
       (Kripke.Trace.finite [ enc 0; enc 1; enc 5 ]))

let test_broken_loop () =
  let m = Lazy.force counter in
  (* 0 -> 1 is a step, but 1 -> 0 is not (1 steps to 2), so the lasso's
     closing edge is broken. *)
  expect_error "unclosed lasso" "Broken_loop"
    (Counterex.Validate.path_ok m
       (Kripke.Trace.lasso ~prefix:[] ~cycle:[ enc 0; enc 1 ]))

let test_state_outside () =
  let m = Lazy.force counter in
  (* A state violating an operand requirement: eu_witness with an
     impossible f. *)
  let zero = Bdd.zero m.Kripke.man in
  expect_error "eu with unsatisfiable f" "State_outside"
    (Counterex.Validate.eu_witness m ~f:zero ~g:m.Kripke.space
       (Kripke.Trace.finite [ enc 0; enc 1 ]));
  (* And via the state space itself: the mutex encodes 3-valued enums
     in 2 bits, so the all-ones assignment is not a legal state. *)
  let mx = (Models.mutex ()).Models.m in
  let bogus = Array.make mx.Kripke.nbits true in
  expect_error "state outside the enum space" "State_outside"
    (Counterex.Validate.path_ok mx (Kripke.Trace.finite [ bogus ]))

let test_missing_fairness () =
  let mx = (Models.mutex ()).Models.m in
  (* The initial state self-loops (both processes may stay idle), but a
     cycle sitting there forever never schedules process 2: fairness
     constraint "mover" is missed. *)
  match Kripke.pick_state mx mx.Kripke.init with
  | None -> Alcotest.fail "mutex has no initial state"
  | Some s0 ->
    expect_error "idle self-loop misses scheduling fairness"
      "Missing_fairness"
      (Counterex.Validate.eg_witness mx ~f:mx.Kripke.space
         (Kripke.Trace.lasso ~prefix:[] ~cycle:[ s0 ]))

let test_valid_traces_pass () =
  let m = Lazy.force counter in
  let ok what = function
    | Ok () -> ()
    | Error e ->
      Alcotest.failf "%s: %a" what Counterex.Validate.pp_error e
  in
  ok "counter path"
    (Counterex.Validate.path_ok m
       (Kripke.Trace.finite [ enc 0; enc 1; enc 2; enc 3 ]));
  (* The full 8-state cycle is a legal lasso. *)
  ok "counter cycle"
    (Counterex.Validate.path_ok m
       (Kripke.Trace.lasso ~prefix:[] ~cycle:(List.init 8 enc)));
  ok "starts at init"
    (Counterex.Validate.starts_at m m.Kripke.init
       (Kripke.Trace.finite [ enc 0 ]))

(* The relational definition of an edge, as the oracle of the
   evaluated check: the relation meets the cube of [a] and the primed
   cube of [b]. *)
let relational_edge m a b =
  not
    (Bdd.is_zero
       (Bdd.conj m.Kripke.man
          [ m.Kripke.trans; Kripke.state_to_bdd m a;
            Kripke.prime m (Kripke.state_to_bdd m b) ]))

let test_has_edge_is_relational () =
  let c = Smv.load_file (Filename.concat "../examples/models" "mutex.smv") in
  let m = c.Smv.Compile.model in
  let reach = Kripke.states_in m (Kripke.reachable m) in
  let n = List.length reach in
  let edges = ref 0 in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let got = Counterex.Validate.has_edge m a b in
          Alcotest.(check bool) "evaluation = relational definition"
            (relational_edge m a b) got;
          if got then incr edges)
        reach)
    reach;
  Alcotest.(check bool) "both edges and non-edges met" true
    (!edges > 0 && !edges < n * n);
  (* A valid three-state path with one bit of its middle state flipped:
     wherever the flipped state stays in the space but loses an edge,
     the path is rejected as a broken transition. *)
  let next st = Option.get (Kripke.pick_successor m st m.Kripke.space) in
  let s0 = Option.get (Kripke.pick_state m m.Kripke.init) in
  let s1 = next s0 in
  let s2 = next s1 in
  (match Counterex.Validate.path_ok m (Kripke.Trace.finite [ s0; s1; s2 ]) with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "the unflipped path is rejected");
  let broken = ref 0 in
  Array.iteri
    (fun bit _ ->
      let s1' = Array.copy s1 in
      s1'.(bit) <- not s1'.(bit);
      if Kripke.eval_in_state m m.Kripke.space s1' then begin
        let tr = Kripke.Trace.finite [ s0; s1'; s2 ] in
        if relational_edge m s0 s1' && relational_edge m s1' s2 then
          Alcotest.(check bool) "both edges kept" true
            (Counterex.Validate.path_ok m tr = Ok ())
        else begin
          incr broken;
          expect_error "flipped bit" "Broken_transition"
            (Counterex.Validate.path_ok m tr)
        end
      end)
    s1;
  Alcotest.(check bool) "some flip breaks an edge" true (!broken > 0)

(* ------------------------------------------------------------------ *)
(* Certification of generator-produced traces.                         *)

let with_formula ?(nfair = 1) () =
  QCheck2.Gen.pair (Models.random_model_gen ~nfair ()) Models.formula_gen

(* Whatever trace the explainer emits for a specification's verdict
   must certify: counterexamples against the formula, witnesses for
   it.  This is exactly the check --certify performs in the CLI. *)
let prop_explained_traces_certify =
  prop "explained traces always certify" ~count:200 (with_formula ())
    (fun (rm, f) ->
      let m = rm.Models.sym in
      let holds = Ctl.Fair.holds m f in
      if holds then
        let rec existential = function
          | Ctl.EX _ | Ctl.EF _ | Ctl.EG _ | Ctl.EU _ -> true
          | Ctl.Not g -> not (existential g)
          | _ -> false
        in
        (not (existential f))
        ||
        match Counterex.Explain.witness m f with
        | None | (exception Counterex.Explain.Cannot_explain _) -> true
        | Some tr -> (
          match Robust.Certify.witness m f tr with
          | Ok () -> true
          | Error msg ->
            QCheck2.Test.fail_reportf "witness failed certification: %s" msg)
      else
        match Counterex.Explain.counterexample m f with
        | None | (exception Counterex.Explain.Cannot_explain _) -> true
        | Some tr -> (
          match Robust.Certify.counterexample m f tr with
          | Ok () -> true
          | Error msg ->
            QCheck2.Test.fail_reportf
              "counterexample failed certification: %s" msg))

(* Certification is not vacuous: a trace for the wrong verdict is
   rejected.  (The counter's EF witness must end at all-ones; a
   truncated one fails.) *)
let test_certify_rejects_bogus () =
  let m = Lazy.force counter in
  let all_ones =
    Ctl.And (Ctl.atom "b0", Ctl.And (Ctl.atom "b1", Ctl.atom "b2"))
  in
  let f = Ctl.EU (Ctl.True, all_ones) in
  (match Counterex.Explain.witness m f with
  | Some tr -> (
    (match Robust.Certify.witness m f tr with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "genuine witness rejected: %s" msg);
    (* Chop the final state off: the EU junction disappears. *)
    let truncated =
      Kripke.Trace.finite
        (List.filteri
           (fun i _ -> i < Kripke.Trace.length tr - 1)
           (Kripke.Trace.states tr))
    in
    match Robust.Certify.witness m f truncated with
    | Ok () -> Alcotest.fail "truncated witness certified"
    | Error _ -> ())
  | None -> Alcotest.fail "no witness for the counter EU")

let suite =
  [
    Alcotest.test_case "Empty_trace" `Quick test_empty_trace;
    Alcotest.test_case "Broken_transition" `Quick test_broken_transition;
    Alcotest.test_case "Broken_loop" `Quick test_broken_loop;
    Alcotest.test_case "has_edge = relational edge" `Quick
      test_has_edge_is_relational;
    Alcotest.test_case "State_outside" `Quick test_state_outside;
    Alcotest.test_case "Missing_fairness" `Quick test_missing_fairness;
    Alcotest.test_case "valid traces pass" `Quick test_valid_traces_pass;
    Alcotest.test_case "bogus traces rejected" `Quick
      test_certify_rejects_bogus;
    prop_explained_traces_certify;
  ]
