(* Chaos suite: run real checking workloads with armed fault hooks and
   assert the recovery engine's contract —

     (a) the manager still satisfies its integrity invariants after a
         recovered fault (canonical hash-consing, clean gc, working
         operations);
     (b) the verdict obtained through recovery equals the fault-free
         verdict;
     (c) an injected fault never escapes as an uncaught exception when
         a ladder is standing (and surfaces only as the documented
         Out_of_memory / Exhausted when none is).

   The workloads are the tier-1 models: the mutex (fair CTL with
   traces) and the engineered counter (deep EF fixpoints). *)

(* Fault-free ground truth for a model+spec, computed on a fresh
   manager-independent copy of the structure (the shared test builders
   reconstruct from scratch each call). *)
let verdict m ~fair f = if fair then Ctl.Fair.holds m f else Ctl.Check.holds m f

(* Check one spec through the ladder with a fault armed, mirroring how
   smv_check drives it (gc rung, explicit rung gated on size). *)
let check_with_ladder m ~fair ~retries f =
  Robust.Ladder.run ~retries
    ~cancelled:(fun () -> false)
    ~fits_explicit:(fun () -> Robust.Fallback.fits m)
    ~live_nodes:(fun () -> Bdd.live_nodes m.Kripke.man)
    (fun ~attempt:_ strategy ->
      match strategy with
      | Robust.Ladder.Explicit_state ->
        let fb = Robust.Fallback.build m in
        Robust.Fallback.holds fb ~fair f
      | Robust.Ladder.Gc_retry ->
        ignore (Bdd.gc m.Kripke.man);
        verdict m ~fair f
      | Robust.Ladder.Direct | Robust.Ladder.Degraded -> verdict m ~fair f)

(* Manager integrity after recovery: hash-consing still canonical (the
   same function built twice is the same node), negation involutive,
   gc completes and the manager keeps answering correctly. *)
let assert_manager_integrity man =
  (* gc first: sweeping after a half-finished, faulted computation must
     leave a consistent table (unrooted intermediates may go — holding
     them across an explicit gc would be caller error). *)
  ignore (Bdd.gc man);
  let x = Bdd.var man 0 and y = Bdd.var man 2 in
  let a = Bdd.and_ man x y and b = Bdd.and_ man y x in
  Alcotest.(check bool) "hash-consing canonical" true (Bdd.equal a b);
  Alcotest.(check bool) "negation involutive" true
    (Bdd.equal x (Bdd.not_ man (Bdd.not_ man x)));
  Alcotest.(check bool) "manager alive" true (Bdd.live_nodes man > 0)

let sites =
  [
    Bdd.Fault.Mk;
    Bdd.Fault.Cache_probe;
    Bdd.Fault.Gc;
    Bdd.Fault.Step;
  ]

(* Sweep injection points: for each site and a spread of trigger
   counts, the recovered verdict must equal the clean one and the
   manager must stay sound.  Counts are small enough that most arm
   points actually fire mid-check. *)
let test_mutex_all_sites () =
  let mx = Models.mutex () in
  let specs =
    [
      Ctl.AG (Ctl.neg (Ctl.And (mx.Models.c1, mx.Models.c2)));
      Ctl.AG (Ctl.Imp (mx.Models.t1, Ctl.AF mx.Models.c1));
      Ctl.EF mx.Models.c2;
    ]
  in
  let clean = List.map (verdict mx.Models.m ~fair:true) specs in
  List.iter
    (fun site ->
      List.iter
        (fun after ->
          List.iteri
            (fun i f ->
              let man = mx.Models.m.Kripke.man in
              Bdd.Fault.arm man ~site ~after;
              (match check_with_ladder mx.Models.m ~fair:true ~retries:2 f with
              | Ok (got, _) ->
                Alcotest.(check bool)
                  (Printf.sprintf "spec %d verdict (site %s, after %d)" i
                     (Bdd.Fault.site_to_string site)
                     after)
                  (List.nth clean i) got
              | Error (failure, _) ->
                Alcotest.failf "ladder exhausted on site %s: %s"
                  (Bdd.Fault.site_to_string site)
                  (Robust.Ladder.failure_name failure)
              | exception e ->
                Alcotest.failf "fault escaped the ladder (site %s): %s"
                  (Bdd.Fault.site_to_string site)
                  (Printexc.to_string e));
              Bdd.Fault.disarm man;
              assert_manager_integrity man)
            specs)
        [ 1; 5; 50 ])
    sites

(* The counter workload: deep fixpoints, no fairness.  The mk site
   with a larger count fires deep inside the EF iteration. *)
let test_counter_deep_fault () =
  let m = Models.counter 8 in
  let all_ones =
    List.init 8 (fun i -> Ctl.atom (Printf.sprintf "b%d" i))
    |> List.fold_left (fun acc a -> Ctl.And (acc, a)) Ctl.True
  in
  let f = Ctl.EF all_ones in
  let clean = verdict m ~fair:false f in
  Alcotest.(check bool) "counter reaches all-ones" true clean;
  List.iter
    (fun (site, after) ->
      let man = m.Kripke.man in
      Bdd.Fault.arm man ~site ~after;
      (match check_with_ladder m ~fair:false ~retries:2 f with
      | Ok (got, log) ->
        Alcotest.(check bool) "recovered verdict" clean got;
        Alcotest.(check bool) "at least one attempt" true
          (List.length log >= 1)
      | Error (failure, _) ->
        Alcotest.failf "ladder exhausted: %s"
          (Robust.Ladder.failure_name failure)
      | exception e ->
        Alcotest.failf "fault escaped: %s" (Printexc.to_string e));
      Bdd.Fault.disarm man;
      assert_manager_integrity man)
    [
      (Bdd.Fault.Mk, 200);
      (Bdd.Fault.Cache_probe, 100);
      (Bdd.Fault.Step, 3);
      (Bdd.Fault.Gc, 1);
    ]

(* Without a ladder, the fault must surface only as the documented
   exception — Out_of_memory for the memory-shaped sites — and leave
   the manager recoverable. *)
let test_fault_without_ladder_is_contained () =
  let m = Models.counter 6 in
  let f = Ctl.EF (Ctl.atom "b5") in
  let man = m.Kripke.man in
  Bdd.Fault.arm man ~site:Bdd.Fault.Mk ~after:50;
  (match verdict m ~fair:false f with
  | (_ : bool) -> Alcotest.fail "armed fault never fired"
  | exception Out_of_memory -> ()
  | exception e ->
    Alcotest.failf "wrong escape exception: %s" (Printexc.to_string e));
  Bdd.Fault.disarm man;
  (* The failed check left partial intermediates; the manager must
     still be fully functional. *)
  assert_manager_integrity man;
  Alcotest.(check bool) "clean re-run succeeds" true
    (verdict m ~fair:false f)

(* Recovered traces certify: arm a fault, recover through the ladder,
   build the counterexample, certify it — the full --retries + --certify
   pipeline in miniature. *)
let test_recovered_trace_certifies () =
  let mx = Models.mutex () in
  let m = mx.Models.m in
  (* False spec: process 2 trying does not guarantee process 1 enters. *)
  let f = Ctl.AG (Ctl.Imp (mx.Models.t1, Ctl.AF mx.Models.c1)) in
  Alcotest.(check bool) "spec is false" false (verdict m ~fair:true f);
  Bdd.Fault.arm m.Kripke.man ~site:Bdd.Fault.Cache_probe ~after:20;
  (match check_with_ladder m ~fair:true ~retries:2 f with
  | Ok (false, _) -> ()
  | Ok (true, _) -> Alcotest.fail "recovered verdict flipped"
  | Error (failure, _) ->
    Alcotest.failf "ladder exhausted: %s" (Robust.Ladder.failure_name failure));
  Bdd.Fault.disarm m.Kripke.man;
  match Counterex.Explain.counterexample m f with
  | None -> Alcotest.fail "no counterexample after recovery"
  | Some tr -> (
    match Robust.Certify.counterexample m f tr with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "recovered trace failed certification: %s" msg)

let suite =
  [
    Alcotest.test_case "mutex: all sites, verdicts stable" `Quick
      test_mutex_all_sites;
    Alcotest.test_case "counter: deep-fixpoint faults recover" `Quick
      test_counter_deep_fault;
    Alcotest.test_case "unladdered fault is contained" `Quick
      test_fault_without_ladder_is_contained;
    Alcotest.test_case "recovered trace certifies" `Quick
      test_recovered_trace_certifies;
  ]
