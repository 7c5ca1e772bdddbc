(* E19 — the one-shot fixed cost.

   Every [smv_check] run pays process start (loader, runtime start-up,
   module initialisers) and the transition-relation build before its
   first spec.  This experiment spawns a ladder of processes, each rung
   adding one piece of that cost, in interleaved rounds (one spawn of
   every rung per round, so drift hits all rungs alike):

     /bin/true                      the kernel's exec + exit
     empty.exe                      an empty OCaml executable (static)
     smv_check --version            + the checker's module initialisers
     smv_check /nonexistent.smv     + option parsing and the failed open
     smv_check one-var.smv          + parse, compile, one verdict
     smv_check arbiter-8.smv        + a real compile and three verdicts

   It also records whether the checker names a program interpreter (an
   ELF PT_INTERP header): the checker links statically, so none should
   be left.  Under [--smoke] a short ladder runs and the smoke run fails
   if a rung exits with an unexpected code or if the checker is an ELF
   file linked dynamically.

   [--checker PATH] measures another build of the checker (the rows of
   BENCH_startup.json alternate two builds this way); by default the
   one beside this executable, [../bin/smv_check.exe]. *)

let checker = ref None

let here = Filename.dirname Sys.executable_name

let checker_path () =
  match !checker with
  | Some p -> p
  | None -> Filename.concat (Filename.concat here Filename.parent_dir_name)
              (Filename.concat "bin" "smv_check.exe")

(* [Some true] when [path] is an ELF executable with a PT_INTERP
   program header (dynamically linked), [Some false] for an ELF file
   without one, [None] when it is not ELF. *)
let elf_interp path =
  In_channel.with_open_bin path (fun ic ->
      let read n = really_input_string ic n in
      match read 64 with
      | exception End_of_file -> None
      | h when String.sub h 0 4 <> "\x7fELF" -> None
      | h ->
        let wide = h.[4] = '\002' in
        let phoff, phentsize, phnum =
          if wide then
            (Int64.to_int (String.get_int64_le h 32),
             String.get_uint16_le h 54, String.get_uint16_le h 56)
          else
            (Int32.to_int (String.get_int32_le h 28),
             String.get_uint16_le h 42, String.get_uint16_le h 44)
        in
        let pt_interp i =
          In_channel.seek ic (Int64.of_int (phoff + (i * phentsize)));
          String.get_int32_le (read 4) 0 = 3l
        in
        Some (List.exists pt_interp (List.init phnum Fun.id)))

let one_var_smv = "MODULE main\nVAR\n  x : boolean;\nSPEC AG (x | !x)\n"

(* (label, argv, expected exit code). *)
let ladder dir =
  let exe = checker_path () in
  let model name text =
    let path = Filename.concat dir name in
    Out_channel.with_open_text path (fun oc -> output_string oc text);
    path
  in
  let one = model "one-var.smv" one_var_smv
  and arb = model "arbiter-8.smv" (Workloads.arbiter_smv 8) in
  [
    ("/bin/true", [| "/bin/true" |], 0);
    ("empty OCaml executable", [| Filename.concat here "empty.exe" |], 0);
    ("smv_check --version", [| exe; "--version" |], 0);
    ("smv_check /nonexistent.smv", [| exe; "/nonexistent.smv" |], 3);
    ("smv_check one-variable model", [| exe; one |], 0);
    ("smv_check arbiter-8", [| exe; arb |], 1);
  ]

(* Wall time of one spawn, to its reaped exit, and its exit code. *)
let spawn null argv =
  let t0 = Bdd.now_monotonic () in
  let pid = Unix.create_process argv.(0) argv null null null in
  let _, status = Unix.waitpid [] pid in
  let dt = Bdd.now_monotonic () -. t0 in
  (dt, match status with Unix.WEXITED c -> c | _ -> -1)

let quantile sorted q =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (q *. float_of_int (n - 1) +. 0.5)))

(* One warm-up round, then [rounds] interleaved rounds.  Returns per
   rung (label, sorted times in ms, whether every exit was expected). *)
let measure rounds =
  let dir = Filename.temp_dir "e19" "" in
  let rungs = Array.of_list (ladder dir) in
  let n = Array.length rungs in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let times = Array.make n [] and ok = Array.make n true in
  for r = 0 to rounds do
    Array.iteri
      (fun i (_, argv, expect) ->
        let dt, code = spawn null argv in
        if code <> expect then ok.(i) <- false;
        if r > 0 then times.(i) <- (dt *. 1e3) :: times.(i))
      rungs
  done;
  Unix.close null;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  List.init n (fun i ->
      let label, _, _ = rungs.(i) in
      let a = Array.of_list times.(i) in
      Array.sort Float.compare a;
      (label, a, ok.(i)))

let interp_string = function
  | Some true -> "yes (dynamic)"
  | Some false -> "no (static)"
  | None -> "not ELF"

let report rounds =
  let exe = checker_path () in
  let interp = elf_interp exe in
  let rows = measure rounds in
  Harness.print_table
    ~title:"E19: one-shot fixed cost (interleaved spawns)"
    ~header:[ "rung"; "median"; "q1"; "q3"; "runs"; "exits" ]
    (List.map
       (fun (label, a, ok) ->
         let ms q = Printf.sprintf "%.3f ms" (quantile a q) in
         [ label; ms 0.5; ms 0.25; ms 0.75; string_of_int (Array.length a);
           (if ok then "expected" else "UNEXPECTED") ])
       rows);
  Harness.note "checker %s; PT_INTERP: %s" exe (interp_string interp);
  List.iter
    (fun (label, a, ok) ->
      Harness.emit_json ~experiment:"E19"
        [ ("rung", Harness.String label);
          ("median_ms", Harness.Float (quantile a 0.5));
          ("q1_ms", Harness.Float (quantile a 0.25));
          ("q3_ms", Harness.Float (quantile a 0.75));
          ("runs", Harness.Int (Array.length a));
          ("exits_expected", Harness.Bool ok);
          ("checker_interp", Harness.Bool (interp = Some true)) ])
    rows;
  (interp, List.for_all (fun (_, _, ok) -> ok) rows)

let run ~full = ignore (report (if full then 300 else 100))

let smoke () =
  let interp, exits = report 5 in
  if interp = Some true then begin
    Format.printf "bench-smoke: E19 smv_check links dynamically (PT_INTERP)@.";
    false
  end
  else if not exits then begin
    Format.printf "bench-smoke: E19 a ladder rung exited with an unexpected code@.";
    false
  end
  else begin
    Format.printf "bench-smoke: E19 ladder OK (checker PT_INTERP: %s)@."
      (interp_string interp);
    true
  end

let bechamel =
  Bechamel.Test.make ~name:"E19 spawn /bin/true"
    (Bechamel.Staged.stage (fun () ->
         let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
         ignore (spawn null [| "/bin/true" |]);
         Unix.close null))
