(* E8 — the Section 9 observation: "finding a counterexample can
   sometimes take most of the execution time required for model
   checking".

   For each workload: time to decide the specification vs time to
   produce the counterexample / witness trace, and the latter's share
   of the total, each the median of five runs on a fresh model; plus
   the EU fixpoint iterations each phase ran.  The rows that go through
   [Counterex.Explain] decide each spec and explain it over one shared
   fixpoint memo, as the checker does, so the trace columns count only
   what the trace adds.  The deep-witness row is perfbench's
   witness-deep input: a 10-bit counter and EF of two values in its top
   eighth, so each witness is about 1000 states long.  The
   philosophers row is perfbench's fair-lasso model: six philosophers,
   one fairness constraint each, and two false liveness specs per
   philosopher whose counterexamples are fair lassos.  Each row also
   splits the trace time of its fair-EG lassos (the phase seconds of
   their [Counterex.Witness.stats]) into nearest-constraint choice,
   descents and closing sweeps; the rings they descend are the
   verdict's own, kept by its fair-EG fixpoint.  The two
   SMV rows also time what [smv_check --certify] does with each trace
   after building it: render it ([Kripke.Trace.pp]) and certify it
   ([Robust.Certify]). *)

let runs = 5

let median xs =
  List.nth (List.sort Float.compare xs) (List.length xs / 2)

let eu_iterations () = (Ctl.Check.fixpoint_stats ()).Ctl.Check.eu_iterations

let phase_names = [ "choice_s"; "descents_s"; "closing_s" ]

(* What a row does with its traces once built, as the checker does
   under [--certify]: render each, then certify each. *)
type evidence = { render : unit -> unit; certify : unit -> unit }

(* The seconds of each phase, summed over a run's fair-EG lassos. *)
let phase_sums (stats : Counterex.Witness.stats list) =
  let sum f = List.fold_left (fun acc st -> acc +. f st) 0.0 stats in
  Counterex.Witness.
    [| sum (fun st -> st.choice_s); sum (fun st -> st.descents_s);
       sum (fun st -> st.closing_s) |]

(* [setup] builds a fresh model for every run, so neither op-cache hits
   nor memoised fair states carry over from one run to the next.
   [trace] returns the row's evidence steps, if it has any, and the
   stats of the fair-EG lassos it built. *)
let row name ~setup ~check ~trace =
  let once () =
    let x = setup () in
    let eu0 = eu_iterations () in
    let (), t_check = Harness.time_once (fun () -> check x) in
    let eu1 = eu_iterations () in
    let (evidence, lassos), t_trace = Harness.time_once (fun () -> trace x) in
    let eu2 = eu_iterations () in
    let phases = phase_sums lassos in
    let t_evidence =
      Option.map
        (fun ev ->
          let (), t_render = Harness.time_once ev.render in
          let (), t_certify = Harness.time_once ev.certify in
          (t_render, t_certify))
        evidence
    in
    (t_check, t_trace, eu1 - eu0, eu2 - eu1, phases, t_evidence)
  in
  let samples = List.init runs (fun _ -> once ()) in
  let _, _, eu_check, eu_trace, _, _ = List.hd samples in
  let t_check = median (List.map (fun (c, _, _, _, _, _) -> c) samples) in
  let t_trace = median (List.map (fun (_, t, _, _, _, _) -> t) samples) in
  let share = t_trace /. (t_check +. t_trace) in
  let phase i = median (List.map (fun (_, _, _, _, p, _) -> p.(i)) samples) in
  let evidence =
    match List.filter_map (fun (_, _, _, _, _, e) -> e) samples with
    | [] -> None
    | es -> Some (median (List.map fst es), median (List.map snd es))
  in
  Harness.emit_json ~experiment:"E8"
    ([
       ("workload", Harness.String name);
       ("check_s", Harness.Float t_check);
       ("trace_s", Harness.Float t_trace);
       ("trace_share", Harness.Float share);
       ("check_eu_iterations", Harness.Int eu_check);
       ("trace_eu_iterations", Harness.Int eu_trace);
     ]
    @ List.mapi (fun i k -> (k, Harness.Float (phase i))) phase_names
    @
    match evidence with
    | None -> []
    | Some (r, c) -> [ ("render_s", Harness.Float r); ("certify_s", Harness.Float c) ]);
  if phase 0 > 0.0 then
    Harness.note "%s fair lassos: choice %s, descents %s, closing %s" name
      (Harness.seconds_string (phase 0))
      (Harness.seconds_string (phase 1))
      (Harness.seconds_string (phase 2));
  [
    name;
    Harness.seconds_string t_check;
    Harness.seconds_string t_trace;
    Printf.sprintf "%.0f%%" (100.0 *. share);
    string_of_int eu_check;
    string_of_int eu_trace;
  ]
  @
  match evidence with
  | None -> [ "-"; "-" ]
  | Some (r, c) -> [ Harness.seconds_string r; Harness.seconds_string c ]

(* A verdict and its trace over one memo per spec, as
   [Server.Engine.check_one] runs them: a true existential spec gets a
   witness, a false one a counterexample, a true universal one
   nothing. *)
type spec = {
  formula : Ctl.t;
  memo : Counterex.Explain.memo;
  mutable holds : bool;
}

let specs m formulas =
  List.map
    (fun formula -> { formula; memo = Counterex.Explain.memo m; holds = false })
    formulas

let decide specs =
  List.iter (fun s -> s.holds <- Counterex.Explain.holds s.memo s.formula) specs

(* Each spec's trace, paired with its spec, and the stats of the
   fair-EG lassos they took. *)
let explain m specs =
  let traces =
    List.filter_map
      (fun s ->
        let memo = s.memo in
        let tr =
          match (s.holds, s.formula) with
          | true, (Ctl.EF _ | Ctl.EX _ | Ctl.EG _ | Ctl.EU _) ->
            Counterex.Explain.witness ~memo m s.formula
          | true, _ -> None
          | false, _ -> Counterex.Explain.counterexample ~memo m s.formula
        in
        Option.map (fun tr -> (s, tr)) tr)
      specs
  in
  (traces, List.concat_map (fun s -> Counterex.Explain.lasso_stats s.memo) specs)

(* Render and certify the traces as [smv_check --certify] prints and
   checks them; a trace that does not certify stops the experiment. *)
let evidence m traces =
  let render () =
    List.iter
      (fun (_, tr) -> ignore (Format.asprintf "%a@." (Kripke.Trace.pp m) tr))
      traces
  in
  let certify () =
    List.iter
      (fun (s, tr) ->
        let cert =
          Robust.Certify.(if s.holds then witness else counterexample)
        in
        match cert m s.formula tr with
        | Ok () -> ()
        | Error msg -> failwith ("E8: a trace failed certification: " ^ msg))
      traces
  in
  { render; certify }

(* A row over SMV source: each run compiles it afresh. *)
let smv_row name source =
  row name
    ~setup:(fun () ->
      let c = Smv.load_string source in
      let m = c.Smv.Compile.model in
      (m, specs m (List.map snd c.Smv.Compile.specs)))
    ~check:(fun (_, ss) -> decide ss)
    ~trace:(fun (m, ss) ->
      let traces, lassos = explain m ss in
      (Some (evidence m traces), lassos))

(* witness-deep's fixed EF targets. *)
let deep_targets = [ 959; 1021 ]

(* perfbench's counter (bit i toggles when all lower bits are 1), with
   one EF spec per target. *)
let deep_counter bits =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "MODULE main\nVAR\n";
  for i = 0 to bits - 1 do
    pf "  b%d : boolean;\n" i
  done;
  pf "ASSIGN\n";
  for i = 0 to bits - 1 do
    pf "  init(b%d) := FALSE;\n" i
  done;
  pf "  next(b0) := !b0;\n";
  for i = 1 to bits - 1 do
    pf "  next(b%d) := !(b%d <-> (%s));\n" i i
      (String.concat " & " (List.init i (Printf.sprintf "b%d")))
  done;
  List.iter
    (fun v ->
      pf "SPEC EF (%s)\n"
        (String.concat " & "
           (List.init bits (fun i ->
                let neg = if (v lsr i) land 1 = 1 then "" else "!" in
                Printf.sprintf "%sb%d" neg i))))
    deep_targets;
  Buffer.contents b

(* perfbench's fair-lasso model: [n] dining philosophers under a
   scheduler, one FAIRNESS constraint per philosopher, and its specs in
   a fixed order (each philosopher's safety spec against the next one,
   then its two starvation specs, which fail). *)
let philosophers n =
  let b = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "MODULE phil(go, left_free, right_free)\n";
  pf "VAR\n  st : {think, hungry, left, eat};\n";
  pf "ASSIGN\n  init(st) := think;\n";
  pf "  next(st) := case\n";
  pf "      go & st = think : {think, hungry};\n";
  pf "      go & st = hungry & left_free : left;\n";
  pf "      go & st = left & right_free : eat;\n";
  pf "      go & st = eat : think;\n";
  pf "      TRUE : st;\n    esac;\n";
  pf "DEFINE\n";
  pf "  holds_left := st = left | st = eat;\n";
  pf "  eating := st = eat;\n\n";
  pf "MODULE main\nVAR\n";
  pf "  sched : 0..%d;\n" (n - 1);
  for i = 0 to n - 1 do
    pf "  p%d : phil(sched = %d, fork%d_free, fork%d_free);\n" i i i
      ((i + 1) mod n)
  done;
  pf "DEFINE\n";
  for i = 0 to n - 1 do
    pf "  fork%d_free := !p%d.holds_left & !p%d.eating;\n" i i
      ((i + n - 1) mod n)
  done;
  pf "ASSIGN\n  next(sched) := {%s};\n"
    (String.concat ", " (List.init n string_of_int));
  for i = 0 to n - 1 do
    pf "FAIRNESS sched = %d\n" i
  done;
  for i = 0 to n - 1 do
    pf "SPEC AG !(p%d.eating & p%d.eating)\n" i ((i + 1) mod n);
    pf "SPEC AG (p%d.st = hungry -> AF p%d.eating)\n" i i;
    pf "SPEC AG (p%d.st = left -> AF p%d.eating)\n" i i
  done;
  Buffer.contents b

(* Three tiny SMV rows with certified traces, so the code that
   measures the deep and philosophers rows runs under [--smoke]: a 6-bit
   counter (the fixed targets read modulo 64: EF of 61 and 63), three
   philosophers, and a three-user arbiter whose [AG (req1 -> AF !req1)]
   fails with a lasso.  The first two models keep bit order, so their
   traces pick each state off one walk; the arbiter's proximity order
   does not, so its trace takes the per-bit pick, and the smoke run
   fails if it ever keeps bit order.  A trace that does not certify
   fails the smoke run too. *)
let smoke () =
  let arbiter = Workloads.arbiter_smv 3 in
  match
    ignore (smv_row "counter-6 EF deep" (deep_counter 6) : string list);
    ignore (smv_row "philosophers-3 fair lasso" (philosophers 3) : string list);
    ignore (smv_row "arbiter-3 liveness lasso" arbiter : string list);
    if (Smv.load_string arbiter).Smv.Compile.model.Kripke.bit_order then
      failwith "E8: the arbiter row keeps bit order; no trace took the per-bit pick"
  with
  | () ->
    Format.printf "bench-smoke: E8 rows OK (every trace certified)@.";
    true
  | exception Failure msg ->
    Format.printf "bench-smoke: %s@." msg;
    false

let run ~full =
  let rows = ref [] in
  let add r = rows := r :: !rows in
  (* Arbiter liveness counterexample. *)
  let arb_users = if full then 3 else 2 in
  let arb_spec = Circuit.Arbiter.liveness_spec arb_users in
  add
    (row
       (Printf.sprintf "arbiter-%d liveness" arb_users)
       ~setup:(fun () ->
         let arb = Circuit.Arbiter.model arb_users in
         (arb, specs arb [ arb_spec ]))
       ~check:(fun (_, ss) -> decide ss)
       ~trace:(fun (arb, ss) -> (None, snd (explain arb ss))));
  (* Fair EG witness on the SCC chain, descending the verdict's rings. *)
  let chain =
    Workloads.scc_chain ~fair_last:true ~components:(if full then 10 else 6)
      ~size:4 ()
  in
  add
    (row "scc-chain EG true"
       ~setup:(fun () ->
         let cm, encode = Explicit.Bridge.to_kripke chain in
         (cm, encode, ref None))
       ~check:(fun (cm, _, hull) ->
         hull := Some (Ctl.Fair.eg_rings cm cm.Kripke.space))
       ~trace:(fun (cm, encode, hull) ->
         let _, stats =
           Counterex.Witness.eg_stats ?hull:!hull cm ~f:cm.Kripke.space
             ~start:(encode 0)
         in
         (None, [ stats ])));
  (* CTL* witness. *)
  let togglers = if full then 7 else 5 in
  let setup () =
    let tog = Workloads.togglers togglers in
    let cs =
      List.init 3 (fun j ->
          let p = Ctl.Check.sat tog (Ctl.atom (Printf.sprintf "t%d" j)) in
          { Ctlstar.Gffg.gf = p; fg = Bdd.diff tog.Kripke.man tog.Kripke.space p })
    in
    match Kripke.pick_state tog tog.Kripke.init with
    | Some st -> (tog, cs, st)
    | None -> assert false
  in
  add
    (row "ctlstar 3 conjuncts" ~setup
       ~check:(fun (tog, cs, _) -> ignore (Ctlstar.Gffg.check tog cs))
       ~trace:(fun (tog, cs, start) ->
         (None, [ snd (Ctlstar.Gffg.witness_stats tog cs ~start) ])));
  (* Fair lassos: the starvation counterexamples. *)
  add (smv_row "philosophers-6 fair lasso" (philosophers 6));
  (* Deep EF witnesses on the counter, last: its garbage would skew the
     timings of the microsecond rows. *)
  add (smv_row "counter-10 EF deep" (deep_counter 10));
  Harness.print_table
    ~title:"E8: counterexample generation as a share of total verification time"
    ~header:
      [ "workload"; "check"; "trace"; "trace share"; "check EU iters";
        "trace EU iters"; "render"; "certify" ]
    (List.rev !rows);
  Harness.note
    "Section 9: \"finding a counterexample can sometimes take most of the";
  Harness.note
    "execution time required for model checking\" — a trace descends the";
  Harness.note
    "verdict's own EU and fair-EG rings, and adds cycle-closing rings and,";
  Harness.note "for CTL*, one check per disjunction no verdict saves."

let bechamel =
  let m = lazy (Circuit.Arbiter.model 2) in
  Bechamel.Test.make ~name:"e8-arbiter2-counterexample"
    (Bechamel.Staged.stage (fun () ->
         let m = Lazy.force m in
         Counterex.Explain.counterexample m (Circuit.Arbiter.liveness_spec 2)))
