(* Smoke test for the packed node store, run via
   `dune build @store-smoke`: the store rewrite (PR 8) is gated on the
   checker's observable behaviour being frozen, so this pins it against
   goldens captured from the pre-packed boxed seed.

   1. Byte identity: the arbiter (full verdict + trace output, exit 1)
      and the governed 26-bit counter (UNDETERMINED reporting under
      --step-limit, exit 2) must reproduce the committed golden files
      exactly — any drift in verdicts, traces, wording or exit codes
      is a store regression, not a tolerable diff.

   2. Chaos sweep over the store's own fault sites: --inject mk:N
      lands an allocation failure inside the unique-table insert path,
      --inject gc:N at collection entry — the two places the packed
      representation rewired most.  Under --retries the run must
      recover to the clean truth pattern (same specs, same verdicts,
      recovery annotations allowed) and must never crash or degrade to
      UNDETERMINED. *)

open Smoke

(* ------------------------------------------------------------------ *)
(* 1. Byte identity against the boxed-seed goldens.                   *)

let check_golden name args ~golden ~code:expected =
  let code, out = run args in
  let want = read_file golden in
  expect (Printf.sprintf "%s: exit code %d" name expected) (code = expected);
  expect (name ^ ": output byte-identical to seed golden") (out = want);
  if out <> want then
    Printf.printf "--- golden ---\n%s--- got ---\n%s%!" want out

(* ------------------------------------------------------------------ *)
(* 2. Fault sweep: verdict truth pattern, annotations stripped.       *)

(* "-- specification F is true (recovered: ...)" -> "F is true". *)
let truth_pattern out =
  String.split_on_char '\n' out
  |> List.filter_map (fun l ->
         if String.length l >= 17 && String.sub l 0 17 = "-- specification " then
           let l =
             match Str.search_forward (Str.regexp " (recovered:") l 0 with
             | i -> String.sub l 0 i
             | exception Not_found -> l
           in
           Some l
         else None)

let chaos name inject =
  let args =
    [ model_path "arbiter.smv"; "--retries"; "2"; "--seed"; "7";
      "--inject"; inject ]
  in
  let code, out = run args in
  expect (Printf.sprintf "%s: exit code 1 (no crash, no degradation)" name)
    (code = 1);
  let clean = read_file "golden/store_arbiter.golden" in
  expect (name ^ ": truth pattern matches the clean run")
    (truth_pattern out = truth_pattern clean);
  expect (name ^ ": no verdict left UNDETERMINED")
    (not
       (List.exists
          (fun l ->
            match Str.search_forward (Str.regexp_string "UNDETERMINED") l 0 with
            | _ -> true
            | exception Not_found -> false)
          (truth_pattern out)))

let () =
  check_golden "arbiter" [ model_path "arbiter.smv" ]
    ~golden:"golden/store_arbiter.golden" ~code:1;
  check_golden "counter26"
    [ model_path "counter26.smv"; "--step-limit"; "64" ]
    ~golden:"golden/store_counter26.golden" ~code:2;
  List.iter
    (fun (name, inject) -> chaos name inject)
    [
      ("mk-early", "mk:1"); ("mk-mid", "mk:2000"); ("mk-late", "mk:40000");
      ("gc-first", "gc:1"); ("gc-second", "gc:2");
    ];
  finish "deviation(s) from the node-store contract"
