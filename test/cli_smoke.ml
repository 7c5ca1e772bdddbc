(* The smv_check CLI contract as one table, run via
   `dune build @cli-smoke` (also part of runtest and @ci).  Each row
   runs the binary once, expects an exit code, and applies a closed
   list of checks.  Comparisons are relational — a flag must leave
   the bytes of the run it is added to unchanged — so the only golden
   files in golden/ are the boxed-seed ones and two fair lassos (the
   second on a model kept beside its golden, out of examples/models).

   The invariance block is generated as models x flag variants: the
   paper's product is the trace, and no performance flag may change a
   byte of it.  Its base is the flagless --certify run, so every
   emitted trace is independently re-validated before it counts (a
   failed certificate exits 3, which no invariance row expects). *)

open Smoke

type check =
  | Same of string list  (** that argv: same exit code, same output *)
  | Same_verdicts of string list
      (** that argv: same exit code and verdict lines, recovery
          annotations stripped *)
  | Golden of string  (** output equals the file *)
  | Has of string
  | Lacks of string

let model name flags = model_path (name ^ ".smv") :: flags

(* Memoised by argv: several rows compare against the same run. *)
let runs = Hashtbl.create 64

let run_once argv =
  match Hashtbl.find_opt runs argv with
  | Some r -> r
  | None ->
    let r = run argv in
    Hashtbl.add runs argv r;
    r

let show argv = String.concat " " (List.map Filename.basename argv)

(* "-- specification F is true (recovered: ...)" -> "-- specification
   F is true": whether a fault was recovered from is not a verdict. *)
let verdicts out =
  String.split_on_char '\n' out
  |> List.filter (String.starts_with ~prefix:"-- specification ")
  |> List.map (fun l ->
         match Str.search_forward (Str.regexp_string " (recovered:") l 0 with
         | i -> String.sub l 0 i
         | exception Not_found -> l)

(* A row: its name, the argv of its run, the exit code that run must
   have, and the checks on that run. *)
let check_row (name, argv, code, checks) =
  let code', out = run_once argv in
  let label what = Printf.sprintf "%s: %s" name what in
  let differ argv' other =
    Printf.printf "--- %s ---\n%s--- %s ---\n%s%!" (show argv) out
      (show argv') other
  in
  expect (label (Printf.sprintf "exit code %d" code)) (code' = code);
  List.iter
    (function
      | Same argv' ->
        let c, o = run_once argv' in
        let ok = c = code' && o = out in
        expect (label ("same bytes as " ^ show argv')) ok;
        if not ok then differ argv' o
      | Same_verdicts argv' ->
        let c, o = run_once argv' in
        (* non-vacuous: the base run must report verdicts at all *)
        let ok = c = code' && verdicts out <> [] && verdicts o = verdicts out in
        expect (label ("same verdicts as " ^ show argv')) ok;
        if not ok then differ argv' o
      | Golden path ->
        let want = read_file path in
        expect (label ("byte-identical to " ^ path)) (out = want);
        if out <> want then differ [ path ] want
      | Has needle -> expect (label ("has " ^ needle)) (contains ~needle out)
      | Lacks needle ->
        expect (label ("lacks " ^ needle)) (not (contains ~needle out)))
    checks

(* ------------------------------------------------------------------ *)
(* Invariance: every committed model x every flag variant.            *)

(* Exit codes of the flagless --certify runs; counter26 runs under a
   step budget so its governed breach is checked, and quickly. *)
let models =
  [
    ("arbiter", 1); ("cache", 1); ("counter12", 0); ("counter26", 2);
    ("mutex", 1); ("philosophers", 1); ("ring", 1);
  ]

let perf_flags =
  [
    [ "--cache-limit"; "256" ];
    [ "--timeout"; "300"; "--node-limit"; "50000000" ];
  ]

(* One step starves every symbolic attempt, so the retry decides on
   the explicit-state rung and its traces are certified like symbolic
   ones.  arbiter and counter26 do not fit the bridge. *)
let explicit_rung = [ "--step-limit"; "1"; "--retries"; "1" ]

let fits_bridge name = not (List.mem name [ "arbiter"; "counter26" ])

let invariance =
  List.map
    (fun (name, code) ->
      let budget = if name = "counter26" then [ "--step-limit"; "64" ] else [] in
      let base = model name ("--certify" :: budget) in
      ( name, base, code,
        List.map (fun v -> Same (base @ v)) perf_flags
        @
        if fits_bridge name then [ Same_verdicts (base @ explicit_rung) ]
        else [] ))
    models

(* ------------------------------------------------------------------ *)
(* Hand-listed rows: reports, goldens, recovery and fault injection.  *)

let rows =
  invariance
  @ [
      (* The arbiter's declaration order is adversarial (E13); the
         compiler's proximity order interleaves each request with its
         acknowledge, so the relation stays small enough to be
         monolithic (E9).  Its 17 clusters meet as a balanced tree
         ([Bdd.conj]), so a traceless run peaks at 1,424 nodes where a
         left fold peaked at 2,196. *)
      ( "arbiter peak", model "arbiter" [ "--stats"; "-q" ], 1,
        [ Has "transition relation: monolithic (194 nodes)";
          Has "peak 1424" ] );
      (* Goldens captured from the boxed node store; the packed store's
         own fault sites (unique-table insert, collection entry) must
         recover to the clean verdicts. *)
      ( "arbiter golden", model "arbiter" [], 1,
        Golden "golden/store_arbiter.golden"
        :: List.map
             (fun inject ->
               Same_verdicts
                 (model "arbiter"
                    [ "--retries"; "2"; "--seed"; "7"; "--inject"; inject ]))
             [ "mk:1"; "mk:2000"; "mk:40000"; "gc:1"; "gc:2" ] );
      (* The EF sweep runs once, for the verdict, and stops at the
         layer that holds the initial state: Q_4095, 4095 iterations,
         with no converging one.  The witness descends the rings that
         sweep saved and re-runs nothing.  The fair states and the
         second spec take one iteration each: 4097. *)
      ( "counter12 stats", model "counter12" [ "--certify"; "--stats" ], 0,
        [ Has "fixpoints: 4097 EU iterations" ] );
      ( "counter26 golden", model "counter26" [ "--step-limit"; "64" ], 2,
        [ Golden "golden/store_counter26.golden" ] );
      (* A fair lasso, byte for byte: the starvation counterexample's
         cycle is closed by the closing rings of Section 6, which stop
         at the first layer that meets the last state's successors. *)
      ( "philosophers golden", model "philosophers" [ "--certify" ], 1,
        [ Golden "golden/philosophers_certify.golden" ] );
      (* A fair lasso whose first round fails to close and restarts
         (perfbench's six philosophers, one starvation spec): the
         restart path, byte for byte. *)
      ( "philosophers6 restart golden",
        [ "golden/philosophers6_restart.smv"; "--certify" ], 1,
        [ Golden "golden/philosophers6_restart.golden" ] );
      (* Its failed round is decided by forward images alone: no
         backward closing sweep runs to convergence (137 EU iterations
         when it did).  The lasso descends the rings the spec's fair EG
         kept from its last outer iteration instead of re-sweeping
         E[f U (Z /\ h)] per constraint against the converged hull:
         those re-sweeps ran 14 iterations, one per layer they saved,
         so 120 - 14 = 106.  Every EU iteration then ran in an
         eu_rings sweep and saved one layer, and the closed round's
         closing sweep also kept its layer 0 ({t}): 106 + 1 = 107.
         The verdict's sweep E[true U (hungry & EG !eating & fair)]
         now stops at Q_2, the first layer that meets the initial
         states (the counterexample starts there too), instead of
         running 14 iterations to its fixpoint at Q_13: 2 iterations
         and 3 layers for 14 and 14, so 106 - 12 = 94 and
         107 - 11 = 96. *)
      ( "philosophers6 restart stats",
        [ "golden/philosophers6_restart.smv"; "--certify"; "--stats" ], 1,
        [ Has "fixpoints: 94 EU iterations";
          Has "96 ring layers, 12 forward iterations";
          Has "fair fixpoints: 7 outer iterations" ] );
      (* A spec starved of steps flat-fails, and is decided and
         certified under --retries. *)
      ( "counter12 starved", model "counter12" [ "--step-limit"; "3"; "-q" ],
        2, [ Has "UNDETERMINED (step budget" ] );
      ( "counter12 recovered",
        model "counter12" [ "--step-limit"; "3"; "--retries"; "2"; "-q" ],
        0,
        [
          Has "b11)) is true"; Has "(recovered: attempt";
          Has "certificate: trace independently validated";
          Lacks "UNDETERMINED";
        ] );
      (* The explicit rung reports a formula that fails only under
         plain semantics as the symbolic one does. *)
      ( "ring plain explicit", model "ring" ("--no-fairness" :: explicit_rung),
        1,
        [
          Has "fails only under plain semantics";
          Lacks "no explicit-state trace";
        ] );
      (* Every injection site recovers to the fault-free verdicts. *)
      ( "mutex", model "mutex" [ "-q" ], 1,
        List.map
          (fun flags -> Same_verdicts (model "mutex" (flags @ [ "-q" ])))
          [
            [ "--inject"; "mk:20"; "--retries"; "2" ];
            [ "--inject"; "probe:20"; "--retries"; "2" ];
            [ "--inject"; "gc:20"; "--retries"; "2" ];
            [ "--inject"; "step:2"; "--step-limit"; "10000"; "--retries"; "2" ];
          ] );
      (* --jobs sizes the --serve worker pool; a one-shot run accepts
         it and checks its specs in order all the same. *)
      ( "one-shot jobs", model "mutex" [ "--certify" ], 1,
        [ Same (model "mutex" [ "--certify"; "--jobs"; "4" ]) ] );
      (* A one-step budget starves the EF spec's direct and gc-retry
         attempts; attempt 3, with the budget doubled twice, is the
         first degraded one and decides it. *)
      ( "degraded at attempt 3",
        model "mutex" [ "--certify"; "--step-limit"; "1"; "--retries"; "3" ],
        1,
        [
          Has "(recovered: attempt 3 via degraded)";
          Same_verdicts (model "mutex" []);
        ] );
      (* The degraded rung installs the partitioned relation and
         tightens the caches. *)
      ( "degraded rung",
        model "arbiter" [ "--step-limit"; "4"; "--retries"; "3"; "-q" ],
        1,
        [
          Has "(recovered: attempt 4 via degraded)";
          Same_verdicts (model "arbiter" []);
        ] );
      ( "unladdered fault", model "mutex" [ "--inject"; "mk:20"; "-q" ], 2,
        [ Has "UNDETERMINED (internal error: Out of memory)" ] );
      (* A deep injected fault under recovery still respects the step
         budget: the ladder ends on the fault (its countdown spans
         attempts), never a crash, and the trivial second spec is
         decided. *)
      ( "counter26 chaos",
        model "counter26"
          [ "--step-limit"; "3"; "--inject"; "mk:1300"; "--retries"; "2"; "-q" ],
        2,
        [
          Has "UNDETERMINED (internal error: Out of memory)";
          Has "(AG (b0 | !b0)) is true";
        ] );
    ]

let () =
  List.iter check_row rows;
  finish "deviation(s) from the CLI contract"
