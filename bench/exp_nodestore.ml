(* E16 — node-store representation: what the unique-table / op-cache
   layout costs on the arbiter and counter families
   ([Workloads.arbiter_smv] / [Workloads.counter_smv]).

   The packed struct-of-arrays store (PR 8) replaces boxed node records
   behind per-level Hashtbl subtables with int-indexed columns, open
   addressing, and direct-mapped op caches.  Its claims are raw ones —
   fewer words per node, fewer major GCs, faster checks — so this
   experiment measures exactly those, with verdicts pinned:

   1. check_s and peak live nodes on arbiter-N / counter-N in the
      compiler's order (the store's own speed; the committed rows
      predate that order and used declaration order);
   2. OCaml-heap pressure: major collections during the check and the
      process peak RSS (VmHWM) afterwards;
   3. live heap words per BDD node, measured on a dense random-cube
      workload with everything rooted (the footprint-regression number
      test/test_store.ml asserts);
   4. the kernel rows: the median check_s of a fresh compile-and-check,
      its ite and relprod cache misses, and the [store_words] of a
      fresh manager, the fixed costs every operation, image and
      manager pays.

   BENCH_nodestore.json keeps one row set per store generation
   ([store_label] below): the "boxed" rows were produced by this same
   experiment compiled against the pre-PR-8 seed, the "packed" rows by
   the current tree, so the committed file is the before/after record
   the acceptance gate (>=2x check_s or >=2x RSS on arbiter-10,
   then in declaration order) reads. *)

let store_label = "packed"

(* The kernel rows' generation: "before" rows come from this experiment
   compiled against the library before the kernel's fixed costs were
   taken out (polymorphic [min], a cube rebuilt per image, a fresh
   manager of 32K column slots and 4K-entry caches), "after" rows from
   the current tree. *)
let kernel_label = "after"

(* Peak resident set of this process, in kB, from the kernel's
   accounting; 0 where /proc is unavailable.  Process-wide and
   monotone, so only the first (largest) workload's row is a clean
   reading — rows are emitted largest-first. *)
let vmhwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
        else scan ()
    in
    let r = scan () in
    close_in ic;
    r

let run_workload ~workload src rows =
  let q0 = Gc.quick_stat () in
  let c = Smv.load_string src in
  let m = c.Smv.Compile.model in
  let check () =
    List.map (fun (_, f) -> Ctl.Check.holds m f) c.Smv.Compile.specs
  in
  let verdicts, t = Harness.time_once check in
  let s = Bdd.stats m.Kripke.man in
  let q1 = Gc.quick_stat () in
  let majors = q1.Gc.major_collections - q0.Gc.major_collections in
  let minors = q1.Gc.minor_collections - q0.Gc.minor_collections in
  let hwm = vmhwm_kb () in
  Harness.emit_json ~experiment:"E16"
    [
      ("workload", Harness.String workload);
      ("store", Harness.String store_label);
      ("check_s", Harness.Float t);
      ("peak_nodes", Harness.Int s.Bdd.peak_nodes);
      ("live_nodes", Harness.Int s.Bdd.live_nodes);
      ("major_collections", Harness.Int majors);
      ("minor_collections", Harness.Int minors);
      ("vmhwm_kb", Harness.Int hwm);
      ( "verdicts",
        Harness.String
          (String.concat ""
             (List.map (fun v -> if v then "T" else "F") verdicts)) );
    ];
  rows
  @ [
      [
        workload;
        store_label;
        Harness.seconds_string t;
        string_of_int s.Bdd.peak_nodes;
        string_of_int majors;
        Printf.sprintf "%d kB" hwm;
        String.concat ""
          (List.map (fun v -> if v then "T" else "F") verdicts);
      ];
    ]

(* Live heap words per BDD node: build many random cubes (linear-size
   chains, deterministic seed), keep every one rooted, and compare
   live_words around the whole build under full majors.  The cubes are
   never combined — a disjunction of random cubes explodes — so live
   nodes stay proportional to [cubes * width] and the fixed manager
   overhead (tables, caches) amortises over them; the same number is
   asserted as a regression bound by test/test_store.ml. *)
let words_per_node ~cubes ~width ~vars =
  Gc.full_major ();
  let w0 = (Gc.stat ()).Gc.live_words in
  let man = Bdd.create () in
  let st = Harness.rng 16 in
  let held = Array.make cubes (Bdd.one man) in
  for i = 0 to cubes - 1 do
    let cube = ref (Bdd.one man) in
    for _ = 1 to width do
      let v = Random.State.int st vars in
      let lit =
        if Random.State.bool st then Bdd.var man v else Bdd.nvar man v
      in
      cube := Bdd.and_ man !cube lit
    done;
    held.(i) <- !cube
  done;
  let root = Bdd.add_root man (fun () -> Array.to_list held) in
  ignore (Bdd.gc man);
  Bdd.clear_caches man;
  Gc.full_major ();
  let w1 = (Gc.stat ()).Gc.live_words in
  let live = Bdd.live_nodes man in
  Bdd.remove_root man root;
  ignore (Sys.opaque_identity held);
  ignore (Sys.opaque_identity man);
  (float_of_int (w1 - w0) /. float_of_int (max 1 live), live)

(* The kernel row of one workload: [reps] fresh compiles, each checked
   once; check_s is the median check, the miss counts are the check's
   own (the same in every rep). *)
let kernel_row ~workload ~reps src =
  let one () =
    let c = Smv.load_string src in
    let m = c.Smv.Compile.model in
    let before = Bdd.stats m.Kripke.man in
    let verdicts, t =
      Harness.time_once (fun () ->
          List.map (fun (_, f) -> Ctl.Check.holds m f) c.Smv.Compile.specs)
    in
    (verdicts, t, Bdd.diff_stats (Bdd.stats m.Kripke.man) before)
  in
  let runs = List.init reps (fun _ -> one ()) in
  let times = List.sort Float.compare (List.map (fun (_, t, _) -> t) runs) in
  let t = List.nth times (reps / 2) in
  let verdicts, _, s = List.hd runs in
  let fresh = (Bdd.stats (Bdd.create ())).Bdd.store_words in
  let verdicts =
    String.concat "" (List.map (fun v -> if v then "T" else "F") verdicts)
  in
  Harness.emit_json ~experiment:"E16"
    [
      ("workload", Harness.String workload);
      ("kernel", Harness.String kernel_label);
      ("check_s", Harness.Float t);
      ("ite_misses", Harness.Int s.Bdd.ite.Bdd.misses);
      ("relprod_misses", Harness.Int s.Bdd.relprod.Bdd.misses);
      ("fresh_store_words", Harness.Int fresh);
      ("verdicts", Harness.String verdicts);
    ];
  [
    workload;
    kernel_label;
    Harness.seconds_string t;
    string_of_int s.Bdd.ite.Bdd.misses;
    string_of_int s.Bdd.relprod.Bdd.misses;
    string_of_int fresh;
    verdicts;
  ]

let run ~full =
  let arb_users = if full then 10 else 8 in
  let ctr_bits = if full then 14 else 10 in
  let kernel =
    List.map
      (fun (workload, src) -> kernel_row ~workload ~reps:7 src)
      [
        (Printf.sprintf "arbiter%d" arb_users, Workloads.arbiter_smv arb_users);
        (Printf.sprintf "counter%d" ctr_bits, Workloads.counter_smv ctr_bits);
      ]
  in
  let rows =
    run_workload
      ~workload:(Printf.sprintf "arbiter%d" arb_users)
      (Workloads.arbiter_smv arb_users)
      []
  in
  let rows =
    run_workload
      ~workload:(Printf.sprintf "counter%d" ctr_bits)
      (Workloads.counter_smv ctr_bits)
      rows
  in
  let wpn, live = words_per_node ~cubes:20_000 ~width:10 ~vars:1000 in
  Harness.emit_json ~experiment:"E16"
    [
      ("workload", Harness.String "cubes20k");
      ("store", Harness.String store_label);
      ("words_per_node", Harness.Float wpn);
      ("live_nodes", Harness.Int live);
    ];
  let rows =
    rows
    @ [
        [
          "cubes20k";
          store_label;
          "-";
          string_of_int live;
          "-";
          Printf.sprintf "%.1f w/node" wpn;
          "-";
        ];
      ]
  in
  Harness.print_table
    ~title:
      "E16: node store — check time, GC pressure, heap words per node \
       (compiler's order)"
    ~header:
      [ "workload"; "store"; "check"; "peak nodes"; "majors"; "footprint";
        "verdicts" ]
    rows;
  Harness.note
    "compiler's order: raw mk/ITE/relprod speed of the store.";
  Harness.note
    "majors: OCaml major collections during the check; footprint: process";
  Harness.note
    "VmHWM (monotone, so the first row is the clean reading) or, for the";
  Harness.note
    "cube workload, live heap words per rooted node.  BENCH_nodestore.json";
  Harness.note
    "keeps boxed rows from the pre-packed seed next to current packed rows.";
  Harness.print_table
    ~title:"E16: kernel — fresh compile-and-check (median of 7)"
    ~header:
      [ "workload"; "kernel"; "check"; "ite misses"; "relprod misses";
        "fresh store words"; "verdicts" ]
    kernel

let bechamel =
  let src = lazy (Workloads.arbiter_smv 6) in
  Bechamel.Test.make ~name:"e16-arbiter6-declared"
    (Bechamel.Staged.stage (fun () ->
         let c = Smv.load_string (Lazy.force src) in
         let m = c.Smv.Compile.model in
         List.map (fun (_, f) -> Ctl.Check.holds m f) c.Smv.Compile.specs))
