(* E12 — recovery-engine overhead.

   Two questions the recovery PR must answer:

   1. What do the fault-injection hooks cost when disarmed?  The hooks
      sit on the hottest paths in the system (mk, op-cache probe, gc,
      limits step), so even one extra branch matters.  Disarmed, each
      hook is a single field load + None check; we bound the cost from
      above by also measuring the strictly more expensive armed state
      (site match + countdown decrement on every mk, counter high
      enough never to fire).  Target: armed-but-idle < 1%, disarmed is
      cheaper still.

   2. What does each ladder rung cost on a budget-starved spec?  The
      engineered counter's EF fixpoint trips a tiny step budget almost
      immediately, so a failed rung's cost is dominated by the
      remediation work (gc, cache tightening) plus ladder bookkeeping —
      exactly the marginal price of asking for one more retry. *)

let iq_mean xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  let lo = n / 4 and hi = n - (n / 4) in
  let sum = ref 0.0 in
  for i = lo to hi - 1 do
    sum := !sum +. a.(i)
  done;
  !sum /. float_of_int (hi - lo)

(* The E7-style fair-EG workload from E10, reused so the hook-overhead
   row is directly comparable with the governance-overhead row. *)
let workload ~bits ~k =
  let base = Workloads.ring bits in
  let constraints =
    List.init k (fun i ->
        Ctl.Check.sat base (Ctl.atom (Printf.sprintf "c%d" i)))
  in
  Kripke.with_fairness base constraints

(* Paired cold rounds as in E10: per-round ratio cancels drift, the
   interquartile mean resolves sub-1% effects. *)
let measure_hooks ~bits ~k ~rounds =
  let sample armed =
    let m = workload ~bits ~k in
    Gc.full_major ();
    let _, s =
      Harness.time_once (fun () ->
          let limits =
            Bdd.Limits.create ~timeout:3600.0 ~node_budget:max_int
              ~step_budget:max_int ()
          in
          if armed then
            Bdd.Fault.arm m.Kripke.man ~site:Bdd.Fault.Mk ~after:max_int;
          ignore
            (Bdd.Limits.with_attached m.Kripke.man limits (fun () ->
                 Ctl.Fair.eg ~limits m m.Kripke.space));
          Bdd.Fault.disarm m.Kripke.man)
    in
    s *. 1e9
  in
  ignore (sample false);
  ignore (sample true);
  (* alternate pair order: the second run of a pair sits on a warmer
     heap, and that bias would otherwise swamp a sub-1% effect *)
  let pairs =
    List.init rounds (fun i ->
        if i land 1 = 0 then
          let d = sample false in
          let a = sample true in
          (d, a)
        else
          let a = sample true in
          let d = sample false in
          (d, a))
  in
  ( iq_mean (List.map fst pairs),
    iq_mean (List.map snd pairs),
    iq_mean (List.map (fun (d, a) -> a /. d) pairs) )

(* The starved counter: EF(all-ones) needs ~2^bits backward iterations,
   so a step budget of a handful trips on every rung. *)
let counter bits =
  let b = Kripke.Builder.create () in
  let vs =
    List.init bits (fun i ->
        Kripke.Builder.bool_var b (Printf.sprintf "b%d" i))
  in
  let bman = Kripke.Builder.man b in
  let v = Kripke.Builder.v b and v' = Kripke.Builder.v' b in
  List.iter (fun x -> Kripke.Builder.add_init b (Bdd.not_ bman (v x))) vs;
  let rec carries acc = function
    | [] -> ()
    | x :: rest ->
      Kripke.Builder.add_trans b (Bdd.iff bman (v' x) (Bdd.xor bman (v x) acc));
      carries (Bdd.and_ bman acc (v x)) rest
  in
  carries (Bdd.one bman) vs;
  Kripke.Builder.label_all_bools b;
  Kripke.Builder.build b

(* One ladder run over the starved spec, mirroring smv_check's rungs
   (gc + cache tightening; the 26-bit space never fits the explicit
   bridge, so the last rung stays symbolic). *)
let starved_ladder m spec ~retries ~base_budget =
  let man = m.Kripke.man in
  let saved = Bdd.cache_limit man in
  let result =
    Robust.Ladder.run ~retries
      ~cancelled:(fun () -> false)
      ~fits_explicit:(fun () -> false)
      ~live_nodes:(fun () -> Bdd.live_nodes man)
      (fun ~attempt strategy ->
        let limits =
          Bdd.Limits.create ~step_budget:(base_budget * (1 lsl (attempt - 1)))
            ()
        in
        (match strategy with
        | Robust.Ladder.Gc_retry -> ignore (Bdd.gc man)
        | Robust.Ladder.Degraded -> Bdd.set_cache_limit man (Some 8192)
        | Robust.Ladder.Direct | Robust.Ladder.Explicit_state -> ());
        Bdd.Limits.with_attached man limits (fun () ->
            Ctl.Check.holds ~limits m spec))
  in
  Bdd.set_cache_limit man saved;
  match result with
  | Ok _ -> failwith "E12: starved spec unexpectedly decided"
  | Error (_, log) -> List.length log

let measure_ladder ~bits ~rounds ~retries =
  let spec =
    Ctl.EF
      (List.init bits (fun i -> Ctl.atom (Printf.sprintf "b%d" i))
      |> List.fold_left (fun acc a -> Ctl.And (acc, a)) Ctl.True)
  in
  let sample () =
    let m = counter bits in
    Gc.full_major ();
    let attempts = ref 0 in
    let _, s =
      Harness.time_once (fun () ->
          attempts := starved_ladder m spec ~retries ~base_budget:4)
    in
    (s *. 1e9, !attempts)
  in
  ignore (sample ());
  let runs = List.init rounds (fun _ -> sample ()) in
  (iq_mean (List.map fst runs), snd (List.hd runs))

let run ~full =
  (* Row set 1: disarmed/armed hook overhead on the E10 workload. *)
  let hook_cases =
    if full then [ (16, 4, 120); (24, 8, 60); (32, 8, 60) ]
    else [ (16, 4, 60); (24, 8, 30) ]
  in
  let hook_rows =
    List.map
      (fun (bits, k, rounds) ->
        let disarmed, armed, ratio = measure_hooks ~bits ~k ~rounds in
        let overhead = 100.0 *. (ratio -. 1.0) in
        Harness.emit_json ~experiment:"E12"
          [
            ("row", Harness.String "fault-hooks");
            ("workload", Harness.String (Printf.sprintf "ring%d-f%d" bits k));
            ("disarmed_ns", Harness.Float disarmed);
            ("armed_idle_ns", Harness.Float armed);
            ("overhead_pct", Harness.Float overhead);
          ];
        [
          Printf.sprintf "ring-%d, %d constraints" bits k;
          Harness.ns_string disarmed;
          Harness.ns_string armed;
          Printf.sprintf "%+.1f%%" overhead;
        ])
      hook_cases
  in
  Harness.print_table
    ~title:
      "E12a: fault-hook overhead on fair EG (armed-but-idle upper-bounds the \
       disarmed hooks; disarmed target < 1%)"
    ~header:[ "workload"; "hooks disarmed"; "hooks armed (idle)"; "overhead" ]
    hook_rows;
  (* Row set 2: marginal cost per ladder rung on a budget-starved spec. *)
  let bits = if full then 26 else 20 in
  let rounds = if full then 40 else 20 in
  let ladder_rows =
    let prev = ref 0.0 in
    List.map
      (fun retries ->
        let ns, attempts = measure_ladder ~bits ~rounds ~retries in
        let marginal = if retries = 0 then ns else ns -. !prev in
        prev := ns;
        Harness.emit_json ~experiment:"E12"
          [
            ("row", Harness.String "ladder-rungs");
            ("workload", Harness.String (Printf.sprintf "counter%d" bits));
            ("retries", Harness.Int retries);
            ("attempts", Harness.Int attempts);
            ("total_ns", Harness.Float ns);
            ("marginal_ns", Harness.Float marginal);
          ];
        [
          Printf.sprintf "counter-%d, --retries %d" bits retries;
          Printf.sprintf "%d" attempts;
          Harness.ns_string ns;
          Harness.ns_string marginal;
        ])
      [ 0; 1; 2 ]
  in
  Harness.print_table
    ~title:"E12b: ladder cost per rung, budget-starved EF (step budget 4)"
    ~header:[ "workload"; "attempts"; "total"; "marginal rung cost" ]
    ladder_rows;
  Harness.note
    "E12a arms the mk-site fault with an unreachable countdown: every mk";
  Harness.note
    "pays the full hook (site match + decrement), never fires.  Disarmed";
  Harness.note
    "runs pay one field check; the PR-over-baseline delta is below the";
  Harness.note
    "armed figure.  E12b: each added retry re-runs the starved fixpoint";
  Harness.note
    "under a doubled step budget after gc / cache-tightening remediation."

let bechamel =
  let m = lazy (workload ~bits:6 ~k:2) in
  Bechamel.Test.make ~name:"e12-armed-idle-fair-eg"
    (Bechamel.Staged.stage (fun () ->
         let m = Lazy.force m in
         Bdd.Fault.arm m.Kripke.man ~site:Bdd.Fault.Mk ~after:max_int;
         let limits = Bdd.Limits.create ~timeout:3600.0 () in
         let r =
           Bdd.Limits.with_attached m.Kripke.man limits (fun () ->
               Ctl.Fair.eg ~limits m m.Kripke.space)
         in
         Bdd.Fault.disarm m.Kripke.man;
         r))
