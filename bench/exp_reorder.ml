(* E13 — variable-order sensitivity: declaration order, the static
   proximity order, and the static order plus one sifting sweep.

   Two questions, on the arbiter workload (whose declaration order is
   deliberately adversarial: all request bits, then all acknowledge
   bits, then the token, so the transition relation is the textbook
   exponential copier) and on a binary counter (whose diagrams are
   nearly order-insensitive, so any cost sifting adds shows up
   undiluted):

   1. How much does the static interleaved/proximity order
      (--reorder static) save over declaration order?
   2. Does one Rudell sifting sweep of the built model on top of the
      static seed pay for itself?  This is the negative result that
      removed run-time sifting as a check option: the sweep stays
      only as a recovery-ladder rung.

   Every configuration must report byte-identical verdicts; only node
   counts and times may move. *)

(* The round-robin token arbiter of examples/models/arbiter.smv,
   parameterised over the number of users and generated with the same
   adversarial declaration order. *)
let arbiter_smv n =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "MODULE main\nVAR\n";
  for i = 0 to n - 1 do
    pf "  req%d : boolean;\n" i
  done;
  for i = 0 to n - 1 do
    pf "  ack%d : boolean;\n" i
  done;
  pf "  token : {%s};\n"
    (String.concat ", " (List.init n (Printf.sprintf "t%d")));
  pf "ASSIGN\n";
  for i = 0 to n - 1 do
    pf "  init(req%d) := FALSE;\n  init(ack%d) := FALSE;\n" i i
  done;
  pf "  init(token) := t0;\n";
  pf "  next(token) := case\n";
  for i = 0 to n - 2 do
    pf "      token = t%d : t%d;\n" i (i + 1)
  done;
  pf "      TRUE : t0;\n    esac;\n";
  for i = 0 to n - 1 do
    pf "  next(ack%d) := req%d & token = t%d;\n" i i i
  done;
  for i = 0 to n - 1 do
    pf
      "  next(req%d) := case ack%d : {TRUE, FALSE}; req%d : TRUE; TRUE : \
       {TRUE, FALSE}; esac;\n"
      i i i
  done;
  pf "SPEC AG !(ack0 & ack1)\n";
  pf "SPEC AG (req0 -> AF ack0)\n";
  pf "SPEC AG (req1 -> AF !req1)\n";
  Buffer.contents b

(* A plain n-bit binary counter: bit k toggles when all lower bits are
   1.  EF(all ones) walks the whole 2^n chain backwards. *)
let counter_smv n =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "MODULE main\nVAR\n";
  for i = 0 to n - 1 do
    pf "  b%d : boolean;\n" i
  done;
  pf "ASSIGN\n";
  for i = 0 to n - 1 do
    pf "  init(b%d) := FALSE;\n" i
  done;
  for i = 0 to n - 1 do
    let lower = List.init i (Printf.sprintf "b%d") in
    let all_lower = match lower with [] -> "TRUE" | l -> String.concat " & " l in
    pf "  next(b%d) := case %s : !b%d; TRUE : b%d; esac;\n" i all_lower i i
  done;
  pf "SPEC EF (%s)\n" (String.concat " & " (List.init n (Printf.sprintf "b%d")));
  pf "SPEC AG (b0 -> EF !b0)\n";
  Buffer.contents b

type config = Declared | Static | Sifted

let config_name = function
  | Declared -> "declared"
  | Static -> "static"
  | Sifted -> "static+sift"

(* One measured run: fresh manager, chosen order policy, check every
   spec sequentially (the CLI's single-job path).  [Sifted] is the
   static seed plus one [Bdd.reorder] sweep of the built model before
   checking, with the sweep inside the timed region. *)
let run_config src config =
  let c = Smv.load_string ~static_order:(config <> Declared) src in
  let m = c.Smv.Compile.model in
  let verdicts, t =
    Harness.time_once (fun () ->
        if config = Sifted then Bdd.reorder m.Kripke.man;
        List.map (fun (_, f) -> Ctl.Check.holds m f) c.Smv.Compile.specs)
  in
  (verdicts, t, Bdd.stats m.Kripke.man)

let sweep ~workload src rows =
  let baseline = ref [] in
  let peak0 = ref 0 in
  List.fold_left
    (fun rows config ->
      let verdicts, t, s = run_config src config in
      (match config with
      | Declared ->
        baseline := verdicts;
        peak0 := s.Bdd.peak_nodes
      | _ ->
        if verdicts <> !baseline then
          failwith
            (Printf.sprintf "E13: %s/%s changed a verdict" workload
               (config_name config)));
      Harness.emit_json ~experiment:"E13"
        [
          ("workload", Harness.String workload);
          ("config", Harness.String (config_name config));
          ("peak_nodes", Harness.Int s.Bdd.peak_nodes);
          ("live_nodes", Harness.Int s.Bdd.live_nodes);
          ("reorders", Harness.Int s.Bdd.reorders);
          ("reorder_ms", Harness.Float s.Bdd.reorder_ms);
          ("check_s", Harness.Float t);
          ( "peak_vs_declared",
            Harness.Float
              (float_of_int !peak0 /. float_of_int (max 1 s.Bdd.peak_nodes)) );
          ( "verdicts",
            Harness.String
              (String.concat ""
                 (List.map (fun v -> if v then "T" else "F") verdicts)) );
        ];
      rows
      @ [
          [
            workload;
            config_name config;
            string_of_int s.Bdd.peak_nodes;
            Printf.sprintf "%.1fx"
              (float_of_int !peak0 /. float_of_int (max 1 s.Bdd.peak_nodes));
            string_of_int s.Bdd.reorders;
            Harness.seconds_string t;
          ];
        ])
    rows
    [ Declared; Static; Sifted ]

let run ~full =
  let arb_users = if full then 10 else 8 in
  let ctr_bits = if full then 12 else 10 in
  let rows = sweep ~workload:(Printf.sprintf "arbiter%d" arb_users)
      (arbiter_smv arb_users) [] in
  let rows = sweep ~workload:(Printf.sprintf "counter%d" ctr_bits)
      (counter_smv ctr_bits) rows in
  Harness.print_table
    ~title:
      "E13: variable order — declaration order vs static interleaving vs \
       static + one sifting sweep (identical verdicts enforced)"
    ~header:[ "workload"; "order"; "peak nodes"; "vs declared"; "sifts"; "check" ]
    rows;
  Harness.note
    "declared: the model's own (adversarial) declaration order, no sifting.";
  Harness.note
    "static: the compile-time interleaved/proximity order (free, no sweeps).";
  Harness.note
    "static+sift: the static seed plus one Rudell sweep of the built model";
  Harness.note
    "before checking (sweep time included) — the sweep the recovery ladder's";
  Harness.note
    "reorder rung runs.  The counter is near order-insensitive: its rows";
  Harness.note "bound sifting's overhead, not its win."

let bechamel =
  let src = lazy (arbiter_smv 6) in
  Bechamel.Test.make ~name:"e13-arbiter6-static"
    (Bechamel.Staged.stage (fun () ->
         run_config (Lazy.force src) Static))
