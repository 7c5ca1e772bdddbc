(* End-to-end contract for crash-only serving, run via
   `dune build @supervise-smoke` (wired into the default runtest):

   - supervised crash/restart: a server under --supervise with a
     --state-dir and an injected child-crash:K fault loses its child
     mid-flood; the supervisor restarts it, the replacement rehydrates
     the snapshotted model, and the first post-restart check on it is
     warm — reach_reused, and 0 new BDD nodes on an unchanged request;
   - byte-identity across the crash: every reply, before and after the
     kill, matches the one-shot CLI byte for byte (the never-crashed
     oracle);
   - counters: the post-restart status reply reports the restore and
     the restart;
   - graceful end: shutdown drains through the supervisor to exit 0
     and removes the socket;
   - corrupt snapshots: a truncated file and a bit-flipped file in the
     state dir are quarantined (renamed, counted) while the server
     falls back to a cold compile and still exits 0;
   - circuit breaker: a deterministic crash loop (child-crash:1) trips
     the breaker and the supervisor gives up with exit 3. *)

open Smoke

(* ------------------------------------------------------------------ *)
(* Spawning and talking to a server over its Unix socket *)

let fresh_dir tag =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "supervise_smoke_%s_%d" tag (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  dir

let rm_rf dir =
  (match Sys.readdir dir with
  | files ->
    Array.iter
      (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
      files
  | exception Sys_error _ -> ());
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

(* Tight supervision windows so a smoke run never waits out production
   backoffs; individual tests override further via [extra_env]. *)
let spawn ?(env = []) args =
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let null_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let environment =
    Array.append (Unix.environment ())
      (Array.of_list (List.map (fun (k, v) -> k ^ "=" ^ v) env))
  in
  let pid =
    Unix.create_process_env exe
      (Array.of_list (exe :: "--serve" :: args))
      environment null_in null_out Unix.stderr
  in
  Unix.close null_in;
  Unix.close null_out;
  pid

(* This file talks to sockets and pids, not to a stdio [server]. *)
let send = write_json
let recv = read_json
let wait_exit = wait_pid

(* A recv that treats a killed peer (reset mid-frame) as end of
   stream: exactly what a client sees when the child is SIGKILLed. *)
let recv_or_eof fd =
  match recv fd with
  | v -> v
  | exception (Frame.Closed | Unix.Unix_error _) -> None

let counter k v =
  Option.bind (Json.member "counters" v) (fun c ->
      Option.bind (Json.member k c) Json.to_num)

let warm_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun n -> Filename.check_suffix n ".warm")

let rec await_warm_file dir tries =
  if warm_files dir <> [] then true
  else if tries = 0 then false
  else begin
    Unix.sleepf 0.25;
    await_warm_file dir (tries - 1)
  end

(* ------------------------------------------------------------------ *)
(* 1. Crash, restart, rehydrate, byte-identical and warm *)

let test_crash_restart_rehydrate () =
  let state = fresh_dir "state" in
  let sock = Filename.concat (fresh_dir "sock") "smv.sock" in
  let mutex = read_file (model_path "mutex.smv") in
  let ring = read_file (model_path "ring.smv") in
  let cli_mutex_code, cli_mutex_out = run_cli [ model_path "mutex.smv" ] in
  let _, cli_ring_out = run_cli [ model_path "ring.smv" ] in
  (* The third check reply kills the child: one warming request, then
     a two-request flood whose second reply is the last thing the
     child ever sends. *)
  let pid =
    spawn
      ~env:
        [
          ("SMV_SUPERVISE_BACKOFF0_MS", "20");
          ("SMV_SUPERVISE_BACKOFF_MAX_MS", "100");
          ("SMV_SUPERVISE_MAX_CRASHES", "50");
        ]
      [
        "--socket"; sock; "--supervise"; "--state-dir"; state;
        "--inject"; "child-crash:3";
      ]
  in
  let fd = connect sock in
  let stats_on = [ ("stats", Json.Bool true) ] in
  send fd (check_req ~id:"warmup" mutex ~options:stats_on);
  (match recv_or_eof fd with
  | Some v ->
    expect "pre-crash check answers ok" (str "status" v = Some "ok");
    expect "pre-crash output matches one-shot CLI"
      (str "output" v = Some cli_mutex_out)
  | None -> expect "pre-crash check answers ok" false);
  (* The idle-pressure persistence tick must write the warm file
     before we let the child die. *)
  expect "snapshot written on the idle watchdog tick"
    (await_warm_file state 60);
  (* Flood: two requests in flight together; the child crashes right
     after the last reply, so both still answer. *)
  send fd (check_req ~id:"flood1" mutex ~options:stats_on);
  send fd (check_req ~id:"flood2" ring ~options:stats_on);
  let flood_replies =
    List.filter_map (fun _ -> recv_or_eof fd) [ (); () ]
  in
  expect "both flood replies delivered before the crash"
    (List.length flood_replies = 2);
  List.iter
    (fun v ->
      match str "id" v with
      | Some "flood1" ->
        expect "flood mutex reply byte-identical"
          (str "output" v = Some cli_mutex_out)
      | Some "flood2" ->
        expect "flood ring reply byte-identical"
          (str "output" v = Some cli_ring_out)
      | _ -> expect "flood reply has a known id" false)
    flood_replies;
  (* The child is now dead (SIGKILL from the fault site); this
     connection is gone with it. *)
  expect "crashed child tears the connection" (recv_or_eof fd = None);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (* The parent still holds the listening socket: reconnect and land
     on the restarted child.  The first check on the snapshotted model
     must be warm from rehydration — reused reachable set, zero new
     nodes — and byte-identical to the never-crashed run. *)
  let fd2 = connect sock in
  send fd2 (check_req ~id:"after" mutex ~options:stats_on);
  (match recv_or_eof fd2 with
  | Some v ->
    expect "post-restart check answers ok" (str "status" v = Some "ok");
    expect "post-restart check is warm from rehydration"
      (boolean "warm" v = Some true);
    expect "post-restart check reuses the reachable set"
      (boolean "reach_reused" v = Some true);
    expect "post-restart output byte-identical to never-crashed run"
      (str "output" v = Some cli_mutex_out);
    expect "post-restart exit code matches"
      (num "exit_code" v = Some (float_of_int cli_mutex_code));
    (match
       Option.bind (Json.member "stats" v) (fun s ->
           Option.bind (Json.member "total_nodes" s) Json.to_num)
     with
    | Some n ->
      expect
        (Printf.sprintf "0 new nodes on the unchanged request (got %.0f)" n)
        (n = 0.)
    | None -> expect "post-restart stats present" false)
  | None -> expect "post-restart check answers ok" false);
  send fd2 (Json.Obj [ ("op", Json.Str "status") ]);
  (match recv_or_eof fd2 with
  | Some v ->
    expect "status: restart counted" (counter "restarts" v = Some 1.);
    (* The mutex snapshot is certainly there; ring's may or may not
       have made it to a tick before the kill. *)
    expect "status: rehydrated entry counted"
      (match counter "restores" v with Some n -> n >= 1. | None -> false);
    expect "status: nothing quarantined" (counter "quarantines" v = Some 0.)
  | None -> expect "status reply after restart" false);
  send fd2 (Json.Obj [ ("op", Json.Str "shutdown") ]);
  ignore (recv_or_eof fd2);
  (try Unix.close fd2 with Unix.Unix_error _ -> ());
  expect "graceful shutdown drains through the supervisor to exit 0"
    (wait_exit pid = 0);
  expect "socket removed after supervised shutdown"
    (not (Sys.file_exists sock));
  rm_rf state;
  rm_rf (Filename.dirname sock)

(* ------------------------------------------------------------------ *)
(* 2. Corrupt snapshots: quarantined, never fatal *)

let flip_byte path i =
  let s = read_file path in
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  let oc = open_out_bin path in
  output_string oc (Bytes.to_string b);
  close_out oc

let truncate_file path n =
  let s = read_file path in
  let oc = open_out_bin path in
  output_string oc (String.sub s 0 (min n (String.length s)));
  close_out oc

let test_corrupt_snapshots_quarantined () =
  let state = fresh_dir "corrupt" in
  let sock = Filename.concat (fresh_dir "csock") "smv.sock" in
  let mutex = read_file (model_path "mutex.smv") in
  let ring = read_file (model_path "ring.smv") in
  let _, cli_mutex_out = run_cli [ model_path "mutex.smv" ] in
  (* A clean run first: graceful shutdown flushes both models to the
     state dir. *)
  let pid = spawn [ "--socket"; sock; "--state-dir"; state ] in
  let fd = connect sock in
  send fd (check_req ~id:"a" mutex);
  ignore (recv fd);
  send fd (check_req ~id:"b" ring);
  ignore (recv fd);
  send fd (Json.Obj [ ("op", Json.Str "shutdown") ]);
  ignore (recv_or_eof fd);
  (try Unix.close fd with Unix.Unix_error _ -> ());
  expect "seed server exits 0" (wait_exit pid = 0);
  (match warm_files state with
  | [ a; b ] ->
    (* One truncated mid-payload, one with a flipped checksum byte
       (bytes 8..23 are the digest). *)
    truncate_file (Filename.concat state a) 40;
    flip_byte (Filename.concat state b) 12
  | files ->
    expect
      (Printf.sprintf "graceful shutdown flushed 2 warm files (got %d)"
         (List.length files))
      false);
  (* Restart over the sabotaged state dir: both files must be
     quarantined, the server must come up cold and still serve. *)
  let pid2 = spawn [ "--socket"; sock; "--state-dir"; state ] in
  let fd2 = connect sock in
  send fd2 (Json.Obj [ ("op", Json.Str "status") ]);
  (match recv_or_eof fd2 with
  | Some v ->
    expect "both corrupt files quarantined"
      (counter "quarantines" v = Some 2.);
    expect "nothing restored from corrupt files"
      (counter "restores" v = Some 0.)
  | None -> expect "status over sabotaged state dir" false);
  let quarantined =
    Sys.readdir state |> Array.to_list
    |> List.filter (fun n -> Filename.check_suffix n ".quarantined")
  in
  expect "corrupt files renamed *.quarantined"
    (List.length quarantined = 2);
  expect "no warm files left behind" (warm_files state = []);
  send fd2 (check_req ~id:"cold" mutex);
  (match recv_or_eof fd2 with
  | Some v ->
    expect "cold fallback still answers" (str "status" v = Some "ok");
    expect "cold fallback is not warm" (boolean "warm" v = Some false);
    expect "cold fallback output byte-identical"
      (str "output" v = Some cli_mutex_out)
  | None -> expect "cold fallback still answers" false);
  send fd2 (Json.Obj [ ("op", Json.Str "shutdown") ]);
  ignore (recv_or_eof fd2);
  (try Unix.close fd2 with Unix.Unix_error _ -> ());
  expect "server over sabotaged state dir still exits 0"
    (wait_exit pid2 = 0);
  rm_rf state;
  rm_rf (Filename.dirname sock)

(* ------------------------------------------------------------------ *)
(* 3. Circuit breaker: a deterministic crash loop ends in exit 3 *)

let test_circuit_breaker () =
  let sock = Filename.concat (fresh_dir "bsock") "smv.sock" in
  let mutex = read_file (model_path "mutex.smv") in
  let pid =
    spawn
      ~env:
        [
          ("SMV_SUPERVISE_BACKOFF0_MS", "10");
          ("SMV_SUPERVISE_BACKOFF_MAX_MS", "20");
          ("SMV_SUPERVISE_MAX_CRASHES", "2");
        ]
      [ "--socket"; sock; "--supervise"; "--inject"; "child-crash:1" ]
  in
  (* Every generation dies after its first reply: two crashes trip the
     breaker.  Each iteration needs a fresh connection — the old one
     died with its child. *)
  let crash_once () =
    let fd = connect sock in
    send fd (check_req ~id:"boom" mutex);
    ignore (recv_or_eof fd);
    ignore (recv_or_eof fd);
    (* the teardown *)
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  crash_once ();
  crash_once ();
  expect "crash loop trips the circuit breaker: exit 3" (wait_exit pid = 3);
  expect "breaker cleanup removes the socket" (not (Sys.file_exists sock));
  rm_rf (Filename.dirname sock)

let () =
  (* A stuck supervisor must fail the alias, not hang CI. *)
  ignore (Unix.alarm 300);
  test_crash_restart_rehydrate ();
  test_corrupt_snapshots_quarantined ();
  test_circuit_breaker ();
  finish "deviation(s) from the crash-only contract"
