(* Overload-protection smoke test for --serve, run via
   `dune build @stress-smoke` (wired into the default `dune runtest`):

   - flood: 200 concurrent checks against a 2-worker server with
     --max-pending 8 get exactly 200 replies — a mix of real check
     replies and structured 'overloaded' sheds carrying retry_after_ms
     — and none are lost;
   - a status probe on a second connection answers promptly while the
     flood is in full swing (it is handled inline by the reader, never
     queued behind checks);
   - SIGTERM mid-flood still drains: every admitted request replies
     and the server exits 0;
   - a path occupied by a regular file refuses to serve (exit 3) and
     the file survives;
   - duplicate in-flight ids and per-connection in-flight caps are
     refused with structured replies;
   - server-side default budgets apply to budget-less requests and
     request budgets still win;
   - the memory watchdog evicts idle warm models past --mem-high-water
     and counts it in the status reply.

   Like serve_smoke, this links the server library for Frame/Json —
   under test is the *process* behaviour. *)

open Smoke

(* A server that went away mid-flood must not kill this process. *)
let send srv obj = try send srv obj with Frame.Closed -> ()

(* ------------------------------------------------------------------ *)
(* 1. Flood past --max-pending: every frame gets exactly one reply,
   and a status probe on a second connection answers mid-flood. *)

let spawn_socket_server args =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "stress_smoke_%d.sock" (Unix.getpid ()))
  in
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let null_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe
      (Array.of_list ((exe :: "--serve" :: "--socket" :: path :: args)))
      null_in null_out Unix.stderr
  in
  Unix.close null_in;
  Unix.close null_out;
  (pid, path, fun tries -> connect ~tries path)

let test_flood_and_status () =
  let flood_n = 200 in
  let pid, _path, connect =
    spawn_socket_server [ "--jobs"; "2"; "--max-pending"; "8" ]
  in
  let flood_fd = connect 50 in
  let probe_fd = connect 50 in
  let flood = { pid; to_server = flood_fd; from_server = flood_fd } in
  let probe = { pid; to_server = probe_fd; from_server = probe_fd } in
  let src = read_file (model_path "mutex.smv") in
  let ids = List.init flood_n (Printf.sprintf "flood-%d") in
  (* Write from a separate thread: 200 frames can exceed the socket
     buffer while the server is busy replying, and a single thread
     doing both would deadlock against it. *)
  let writer =
    Thread.create
      (fun () -> List.iter (fun id -> send flood (check_req ~id src)) ids)
      ()
  in
  (* Mid-flood health probe on its own connection. *)
  Unix.sleepf 0.05;
  let t0 = Unix.gettimeofday () in
  send probe (Json.Obj [ ("op", Json.Str "status") ]);
  let status = recv probe in
  let probe_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  (match status with
  | Some v ->
    expect
      (Printf.sprintf "status probe answers mid-flood (%.1f ms)" probe_ms)
      (probe_ms < 1000.);
    expect "status probe reports ok" (str "status" v = Some "ok");
    expect "status probe reports the worker count" (num "workers" v = Some 2.);
    expect "status probe reports max_pending" (num "max_pending" v = Some 8.)
  | None -> expect "status probe answers mid-flood" false);
  (* Exactly one reply per flood frame, in whatever order. *)
  let pending = Hashtbl.create 64 in
  List.iter (fun id -> Hashtbl.replace pending id ()) ids;
  let oks = ref 0 and sheds = ref 0 and bad = ref 0 in
  let rec collect () =
    if Hashtbl.length pending > 0 then
      match recv flood with
      | None -> failwith "server closed the stream with replies pending"
      | Some v ->
        (match str "id" v with
        | Some id when Hashtbl.mem pending id -> (
          Hashtbl.remove pending id;
          match str "status" v with
          | Some "ok" -> incr oks
          | Some "overloaded" ->
            incr sheds;
            let retry = num "retry_after_ms" v in
            if
              not
                (str "reason" v = Some "queue"
                && (match retry with Some r -> r >= 1. | None -> false)
                && num "queue_depth" v <> None)
            then incr bad
          | _ -> incr bad)
        | _ -> ());
        collect ()
  in
  collect ();
  Thread.join writer;
  expect
    (Printf.sprintf "all %d flood frames answered (%d ok, %d shed)" flood_n
       !oks !sheds)
    (!oks + !sheds = flood_n);
  expect "some checks were served" (!oks >= 1);
  expect "some checks were shed" (!sheds >= 1);
  expect "every shed reply carries reason/queue_depth/retry_after_ms"
    (!bad = 0);
  (* The final status must account for the sheds we counted. *)
  send probe (Json.Obj [ ("op", Json.Str "status") ]);
  (match recv probe with
  | Some v -> (
    match Json.member "counters" v with
    | Some c ->
      expect "status counters match observed sheds"
        (Option.bind (Json.member "shed_queue" c) Json.to_num
        = Some (float_of_int !sheds))
    | None -> expect "status reply has counters" false)
  | None -> expect "status probe answers post-flood" false);
  send probe (Json.Obj [ ("op", Json.Str "shutdown") ]);
  (try Unix.close probe_fd with Unix.Unix_error _ -> ());
  expect "server exits 0 after the flood" (wait_exit flood = 0)

(* ------------------------------------------------------------------ *)
(* 2. SIGTERM mid-flood drains: every reply that comes back is
   well-formed and the exit is clean. *)

let test_sigterm_mid_flood () =
  let srv = spawn_server [ "--jobs"; "1"; "--max-pending"; "4" ] in
  let src = read_file (model_path "mutex.smv") in
  let ids = List.init 50 (Printf.sprintf "term-%d") in
  let writer =
    Thread.create
      (fun () -> List.iter (fun id -> send srv (check_req ~id src)) ids)
      ()
  in
  Unix.sleepf 0.1;
  Unix.kill srv.pid Sys.sigterm;
  Thread.join writer;
  let replies = ref 0 and bad = ref 0 in
  let rec drain () =
    match recv srv with
    | Some v ->
      incr replies;
      (match (str "id" v, str "status" v) with
      | Some id, Some ("ok" | "overloaded") when List.mem id ids -> ()
      | _ -> incr bad);
      drain ()
    | None -> ()
    | exception _ -> ()
  in
  drain ();
  expect
    (Printf.sprintf "replies before the drain are well-formed (%d received)"
       !replies)
    (!replies >= 1 && !bad = 0);
  expect "SIGTERM mid-flood drains to exit 0" (wait_exit srv = 0)

(* ------------------------------------------------------------------ *)
(* 3. A non-socket file at the socket path refuses to serve. *)

let test_stale_path_refused () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "stress_smoke_file_%d" (Unix.getpid ()))
  in
  let oc = open_out path in
  output_string oc "precious user data\n";
  close_out oc;
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let null_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "--serve"; "--socket"; path |]
      null_in null_out Unix.stderr
  in
  Unix.close null_in;
  Unix.close null_out;
  let code =
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED n -> n
    | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) -> 128 + n
  in
  expect "non-socket path refused with exit 3" (code = 3);
  expect "the file was not replaced"
    (Sys.file_exists path && read_file path = "precious user data\n");
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* 4. Duplicate ids and the per-connection in-flight cap. *)

let test_duplicate_and_inflight_cap () =
  let srv = spawn_server [ "--jobs"; "2"; "--max-inflight"; "1" ] in
  let src = read_file (model_path "ring.smv") in
  (* The first check of each pair below must still be in flight when
     the server reads the second frame.  counter26's first spec needs
     ~2^26 iterations, so under a 1 s request timeout it stays in
     flight for a known ~2 s (the reachability warm-up and the spec
     each run to the deadline) and then answers UNDETERMINED. *)
  let slow id =
    check_req ~id (read_file (model_path "counter26.smv"))
      ~options:[ ("timeout", Json.Num 1.0) ]
  in
  (* Two frames with one id, sent back to back: the second must be
     refused while the first is still in flight. *)
  send srv (slow "dup");
  send srv (check_req ~id:"dup" src);
  let statuses = ref [] in
  for _ = 1 to 2 do
    match recv srv with
    | Some v when str "id" v = Some "dup" ->
      statuses := Option.get (str "status" v) :: !statuses
    | Some _ | None -> ()
  done;
  expect "duplicate id: one check reply and one structured error"
    (List.sort compare !statuses = [ "error"; "ok" ]);
  (* With --max-inflight 1, a second concurrent check on the same
     connection sheds with reason 'inflight'. *)
  send srv (slow "cap-a");
  send srv (check_req ~id:"cap-b" src);
  let got = Hashtbl.create 4 in
  for _ = 1 to 2 do
    match recv srv with
    | Some v -> (
      match str "id" v with
      | Some id -> Hashtbl.replace got id v
      | None -> ())
    | None -> ()
  done;
  (match (Hashtbl.find_opt got "cap-a", Hashtbl.find_opt got "cap-b") with
  | Some a, Some b ->
    expect "first check under the cap is served" (str "status" a = Some "ok");
    expect "second check sheds with reason inflight"
      (str "status" b = Some "overloaded" && str "reason" b = Some "inflight")
  | _ -> expect "both capped checks answered" false);
  send srv (Json.Obj [ ("op", Json.Str "shutdown") ]);
  expect "server exits 0 after cap tests" (wait_exit srv = 0)

(* ------------------------------------------------------------------ *)
(* 5. Server-side default budgets: applied when the request names
   none, overridden when it does. *)

let test_default_budgets () =
  let srv = spawn_server [ "--jobs"; "1"; "--default-node-limit"; "10" ] in
  let src = read_file (model_path "mutex.smv") in
  send srv (check_req ~id:"briefless" src);
  (match recv srv with
  | Some v ->
    expect "budget-less request gets the server's node limit (exit 2)"
      (str "status" v = Some "ok" && num "exit_code" v = Some 2.)
  | None -> expect "budget-less request answered" false);
  send srv
    (check_req ~id:"generous" src
       ~options:[ ("node_limit", Json.Num 10_000_000.) ]);
  (match recv srv with
  | Some v ->
    (* mutex.smv has one failing spec: a run the budget did not trip
       exits 1, never 2. *)
    expect "request's own budget wins over the default (exit 1)"
      (str "status" v = Some "ok" && num "exit_code" v = Some 1.)
  | None -> expect "budgeted request answered" false);
  send srv (Json.Obj [ ("op", Json.Str "shutdown") ]);
  expect "server exits 0 after budget tests" (wait_exit srv = 0)

(* ------------------------------------------------------------------ *)
(* 6. The memory watchdog evicts idle warm models past the high-water
   mark, counts it, and the model comes back cold. *)

let test_watchdog_eviction () =
  (* High water of one node: any warm model is over it, so the first
     idle tick must evict. *)
  let srv = spawn_server [ "--jobs"; "1"; "--mem-high-water"; "1" ] in
  let src = read_file (model_path "mutex.smv") in
  send srv (check_req ~id:"first" src);
  (match recv srv with
  | Some v -> expect "first check served" (str "status" v = Some "ok")
  | None -> expect "first check served" false);
  (* Two watchdog periods with the entry idle. *)
  Unix.sleepf 0.6;
  send srv (check_req ~id:"second" src);
  (match recv srv with
  | Some v ->
    expect "model evicted under pressure comes back cold"
      (str "status" v = Some "ok"
      && Option.bind (Json.member "warm" v) Json.to_bool = Some false)
  | None -> expect "second check served" false);
  send srv (Json.Obj [ ("op", Json.Str "status") ]);
  (match recv srv with
  | Some v -> (
    expect "status reports the high-water mark"
      (num "mem_high_water" v = Some 1.);
    match Json.member "counters" v with
    | Some c ->
      expect "watchdog evictions counted"
        (match Option.bind (Json.member "watchdog_evictions" c) Json.to_num with
        | Some n -> n >= 1.
        | None -> false)
    | None -> expect "status reply has counters" false)
  | None -> expect "status answered after watchdog activity" false);
  send srv (Json.Obj [ ("op", Json.Str "shutdown") ]);
  expect "server exits 0 after watchdog test" (wait_exit srv = 0)

let () =
  (* A stuck server must fail the alias, not hang CI. *)
  ignore (Unix.alarm 300);
  (* A server that exits mid-test must surface as a failed expectation,
     not kill this process on a pipe write. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  test_flood_and_status ();
  test_sigterm_mid_flood ();
  test_stale_path_refused ();
  test_duplicate_and_inflight_cap ();
  test_default_budgets ();
  test_watchdog_eviction ();
  finish "deviation(s) from the overload contract"
