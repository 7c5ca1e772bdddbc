(* End-to-end smoke test for --serve, run via `dune build @serve-smoke`
   (wired into the default `dune runtest`):

   - byte-identity: N concurrent check requests answer with exactly the
     verdict/trace text and exit code of N one-shot CLI runs;
   - warm reuse: of two concurrent requests for a model, exactly one
     is cold; the other reports warm = true and reach_reused = true,
     and allocates fewer new BDD nodes;
   - chaos isolation: a request with an injected fault is answered
     UNDETERMINED, matches the one-shot CLI's --inject output byte for
     byte, and perturbs neither concurrent requests nor later warm
     checks of the same model — and the server survives;
   - protocol robustness: garbage frames and bad options get error
     replies, the connection stays usable;
   - --jobs 0 sizes the worker pool to the core count;
   - drain: SIGINT while a request is in flight still yields that
     request's reply and a clean exit 0;
   - socket mode: the same loop served over a Unix-domain socket;
   - churn: four models through a pool of two, in an order that
     evicts entries and collects a pooled manager, every reply equal
     to the one-shot CLI run on the same source and specs.

   The test links the server library for its Frame/Json modules — the
   same code the server uses, which is fine because what is under test
   here is the *process* behaviour, not the codec. *)

open Smoke

(* Read replies until every id in [ids] has answered (replies arrive
   in completion order, not request order). *)
let collect_replies srv ids =
  let pending = Hashtbl.create 8 in
  List.iter (fun id -> Hashtbl.replace pending id ()) ids;
  let replies = Hashtbl.create 8 in
  let rec go () =
    if Hashtbl.length pending > 0 then
      match recv srv with
      | None -> failwith "server closed the stream with replies pending"
      | Some v ->
        (match str "id" v with
        | Some id when Hashtbl.mem pending id ->
          Hashtbl.remove pending id;
          Hashtbl.replace replies id v
        | _ -> ());
        go ()
  in
  go ();
  fun id -> Hashtbl.find replies id

(* ------------------------------------------------------------------ *)
(* 1. Byte-identity of concurrent requests + warm reuse *)

let test_identity_and_warmth () =
  let models = [ "mutex.smv"; "philosophers.smv"; "ring.smv" ] in
  let oneshot =
    List.map (fun m -> (m, run_cli [ model_path m ])) models
  in
  let srv = spawn_server [ "--jobs"; "2" ] in
  (* Two identical requests per model, all six in flight together to
     exercise concurrent scheduling.  Whichever request's worker takes
     the model first builds it, so the replies' own [warm] field, not
     the request order, tells the cold one from the warm one. *)
  let ids = [ "1"; "2" ] in
  let reqs =
    List.concat_map
      (fun m ->
        let src = read_file (model_path m) in
        List.map
          (fun n ->
            (m ^ ":" ^ n, check_req ~id:(m ^ ":" ^ n) src
               ~options:[ ("stats", Json.Bool true) ]))
          ids)
      models
  in
  List.iter (fun (_, r) -> send srv r) reqs;
  let reply = collect_replies srv (List.map fst reqs) in
  List.iter
    (fun m ->
      let code, out = List.assoc m oneshot in
      List.iter
        (fun n ->
          let v = reply (m ^ ":" ^ n) in
          expect
            (Printf.sprintf "%s (request %s): status ok" m n)
            (str "status" v = Some "ok");
          expect
            (Printf.sprintf "%s (request %s): output byte-identical to one-shot"
               m n)
            (str "output" v = Some out);
          expect
            (Printf.sprintf "%s (request %s): exit code matches one-shot" m n)
            (num "exit_code" v = Some (float_of_int code)))
        ids;
      let first = reply (m ^ ":1") and second = reply (m ^ ":2") in
      let cold, warm =
        if boolean "warm" first = Some false then (first, second)
        else (second, first)
      in
      expect (m ^ ": one request is cold") (boolean "warm" cold = Some false);
      expect (m ^ ": the other request is warm")
        (boolean "warm" warm = Some true);
      expect
        (m ^ ": warm request reuses the memoised reachable set")
        (boolean "reach_reused" warm = Some true);
      let allocated v =
        Option.bind (Json.member "stats" v) (fun s ->
            Option.bind (Json.member "total_nodes" s) Json.to_num)
      in
      match (allocated cold, allocated warm) with
      | Some c, Some w ->
        expect
          (Printf.sprintf
             "%s: warm request allocates fewer nodes (%.0f < %.0f)" m w c)
          (w < c)
      | _ -> expect (m ^ ": per-request stats present") false)
    models;
  send srv (Json.Obj [ ("op", Json.Str "shutdown") ]);
  expect "server exits 0 after shutdown op" (wait_exit srv = 0)

(* ------------------------------------------------------------------ *)
(* 2. Chaos isolation *)

let test_chaos_isolation () =
  let mutex = read_file (model_path "mutex.smv") in
  let phil = read_file (model_path "philosophers.smv") in
  let cli_clean_code, cli_clean_out = run_cli [ model_path "mutex.smv" ] in
  let cli_fault_code, cli_fault_out =
    run_cli [ "--inject"; "step:1"; model_path "mutex.smv" ]
  in
  let _, cli_phil_out = run_cli [ model_path "philosophers.smv" ] in
  let srv = spawn_server [ "--jobs"; "2" ] in
  send srv
    (check_req ~id:"faulty" mutex
       ~options:[ ("inject", Json.Str "step:1") ]);
  send srv (check_req ~id:"bystander" phil);
  let reply = collect_replies srv [ "faulty"; "bystander" ] in
  let faulty = reply "faulty" in
  expect "fault request answered, not crashed"
    (str "status" faulty = Some "ok");
  expect "fault request is UNDETERMINED (exit 2)"
    (num "exit_code" faulty = Some (float_of_int cli_fault_code));
  expect "fault request output matches one-shot --inject run"
    (str "output" faulty = Some cli_fault_out);
  expect "concurrent clean request unperturbed"
    (str "output" (reply "bystander") = Some cli_phil_out);
  (* The faulted entry stays clean: a follow-up warm check of the same
     model must match a fault-free one-shot run exactly. *)
  send srv (check_req ~id:"after" mutex);
  let reply2 = collect_replies srv [ "after" ] in
  let after = reply2 "after" in
  expect "warm check after a fault is byte-identical to clean one-shot"
    (str "output" after = Some cli_clean_out
    && num "exit_code" after = Some (float_of_int cli_clean_code));
  expect "and it is warm" (boolean "warm" after = Some true);
  (* Server is still alive and polite. *)
  send srv (Json.Obj [ ("op", Json.Str "ping") ]);
  (match recv srv with
  | Some v -> expect "server still answers ping" (str "op" v = Some "pong")
  | None -> expect "server still answers ping" false);
  send srv (Json.Obj [ ("op", Json.Str "shutdown") ]);
  expect "server exits 0 after chaos" (wait_exit srv = 0)

(* ------------------------------------------------------------------ *)
(* 3. Protocol robustness *)

let test_protocol_errors () =
  let srv = spawn_server [] in
  Frame.write srv.to_server "this is not json";
  (match recv srv with
  | Some v ->
    expect "garbage frame gets an error reply"
      (str "status" v = Some "error")
  | None -> expect "garbage frame gets an error reply" false);
  send srv (Json.Obj [ ("op", Json.Str "launch-missiles") ]);
  (match recv srv with
  | Some v ->
    expect "unknown op gets an error reply" (str "status" v = Some "error")
  | None -> expect "unknown op gets an error reply" false);
  (* A check with an invalid model: an error reply carrying the id. *)
  send srv (check_req ~id:"bad" "MODULE main\nVAR oops");
  (match recv srv with
  | Some v ->
    expect "compile error becomes an error reply with the id"
      (str "status" v = Some "error" && str "id" v = Some "bad")
  | None -> expect "compile error becomes an error reply with the id" false);
  (* worker:N and reorder:N are refused like any unknown site, with
     the one-shot command line's message. *)
  List.iter
    (fun inject ->
      let what = Printf.sprintf "inject %s gets the one-shot error" inject in
      let _, cli_err = run [ model_path "mutex.smv"; "--inject"; inject ] in
      send srv
        (check_req ~id:"w" "MODULE main"
           ~options:[ ("inject", Json.Str inject) ]);
      match recv srv with
      | Some v ->
        expect what
          (str "status" v = Some "error"
          && str "error" v = Some (String.trim cli_err)
          && contains ~needle:"unknown site" cli_err)
      | None -> expect what false)
    [ "worker:1"; "reorder:1" ];
  (* Still fully functional afterwards. *)
  send srv (check_req ~id:"ok" (read_file (model_path "mutex.smv")));
  (match recv srv with
  | Some v ->
    expect "connection survives all of the above"
      (str "status" v = Some "ok")
  | None -> expect "connection survives all of the above" false);
  send srv (Json.Obj [ ("op", Json.Str "shutdown") ]);
  expect "server exits 0" (wait_exit srv = 0)

(* ------------------------------------------------------------------ *)
(* 4. --jobs 0 means one worker per core *)

let test_jobs_zero () =
  let srv = spawn_server [ "--jobs"; "0" ] in
  send srv (Json.Obj [ ("op", Json.Str "status") ]);
  let cores = float_of_int (Domain.recommended_domain_count ()) in
  (match recv srv with
  | Some v ->
    expect "--jobs 0 reports one worker per core"
      (num "workers" v = Some cores)
  | None -> expect "--jobs 0 answers a status probe" false);
  send srv (Json.Obj [ ("op", Json.Str "shutdown") ]);
  expect "--jobs 0 server exits 0" (wait_exit srv = 0)

(* ------------------------------------------------------------------ *)
(* 5. SIGINT drains in-flight work *)

let test_sigint_drain () =
  let srv = spawn_server [] in
  send srv (check_req ~id:"inflight" (read_file (model_path "ring.smv")));
  (* Let the worker pick the request up, then interrupt the server. *)
  Unix.sleepf 0.15;
  Unix.kill srv.pid Sys.sigint;
  let rec drain got =
    match recv srv with
    | Some v -> drain (if str "id" v = Some "inflight" then Some v else got)
    | None -> got
    | exception _ -> got
  in
  (match drain None with
  | Some v ->
    expect "in-flight request still answered after SIGINT"
      (str "status" v = Some "ok")
  | None -> expect "in-flight request still answered after SIGINT" false);
  expect "SIGINT drains to exit 0" (wait_exit srv = 0)

(* ------------------------------------------------------------------ *)
(* 6. Socket mode *)

let test_socket_mode () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "serve_smoke_%d.sock" (Unix.getpid ()))
  in
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let null_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "--serve"; "--socket"; path |]
      null_in null_out Unix.stderr
  in
  Unix.close null_in;
  Unix.close null_out;
  (* Wait for the socket to appear. *)
  let rec connect tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      if tries = 0 then failwith "socket never came up"
      else begin
        Unix.sleepf 0.1;
        connect (tries - 1)
      end
  in
  let fd = connect 50 in
  let srv = { pid; to_server = fd; from_server = fd } in
  let _, cli_out = run_cli [ model_path "mutex.smv" ] in
  send srv (check_req ~id:"s1" (read_file (model_path "mutex.smv")));
  (match recv srv with
  | Some v ->
    expect "socket check answers with identical output"
      (str "output" v = Some cli_out)
  | None -> expect "socket check answers with identical output" false);
  send srv (Json.Obj [ ("op", Json.Str "shutdown") ]);
  (match recv srv with
  | Some v ->
    expect "socket shutdown acknowledged" (str "op" v = Some "shutdown")
  | None -> expect "socket shutdown acknowledged" false);
  expect "socket server exits 0" (wait_exit srv = 0);
  expect "socket file removed on exit" (not (Sys.file_exists path))

(* ------------------------------------------------------------------ *)
(* 7. Byte identity under churn *)

let test_churn () =
  let srv = spawn_server [ "--cache-models"; "2" ] in
  let oneshot = Hashtbl.create 8 in
  (* One request at a time, so the pool's evictions follow the order
     below: counter12's repeats (over 4,096 live nodes) are collected,
     the once-used and then the cheapest reused entries are evicted. *)
  let requests =
    [ ("counter12.smv", []); ("mutex.smv", []); ("counter12.smv", []);
      ("counter12.smv", [ "EF (b3 = b0 & b5)" ]);
      ("philosophers.smv", []); ("mutex.smv", [ "EF (p = crit & q = try)" ]);
      ("philosophers.smv", [ "AG (p1.st = hungry -> AF p1.eating)" ]);
      ("cache.smv", []); ("cache.smv", [ "EF (c0 = owned & op = rd1)" ]);
      ("counter12.smv", [ "EF (b3 = b0 & b5)" ]); ("mutex.smv", []);
      ("philosophers.smv", [ "AG (p1.st = hungry -> AF p1.eating)" ]);
      ("mutex.smv", [ "EF (p = crit & q = try)" ]); ("counter12.smv", []) ]
  in
  List.iteri
    (fun i (m, specs) ->
      let what =
        Printf.sprintf "churn request %d (%s%s)" (i + 1) m
          (String.concat "" (List.map (fun f -> ", " ^ f) specs))
      in
      let code, out =
        match Hashtbl.find_opt oneshot (m, specs) with
        | Some r -> r
        | None ->
          let r =
            run_cli
              (model_path m
              :: List.concat_map (fun f -> [ "--spec"; f ]) specs)
          in
          Hashtbl.replace oneshot (m, specs) r;
          r
      in
      let id = string_of_int i in
      send srv (check_req ~id ~specs (read_file (model_path m)));
      match recv srv with
      | Some v ->
        expect (what ^ ": output and exit code equal the one-shot run")
          (str "id" v = Some id
          && str "output" v = Some out
          && num "exit_code" v = Some (float_of_int code))
      | None -> expect (what ^ ": answered") false)
    requests;
  send srv (Json.Obj [ ("op", Json.Str "status") ]);
  (match recv srv with
  | Some v ->
    let field path =
      List.fold_left (fun v k -> Option.bind v (Json.member k)) (Some v) path
      |> fun v -> Option.bind v Json.to_num
    in
    expect "churn: a pooled manager was collected"
      (match field [ "counters"; "collections" ] with
      | Some n -> n >= 1.
      | None -> false);
    expect "churn: the collections freed nodes"
      (match field [ "counters"; "collected_nodes" ] with
      | Some n -> n > 0.
      | None -> false);
    expect "churn: a reused entry was evicted (the floor rose)"
      (match field [ "cache"; "floor" ] with Some n -> n > 0. | None -> false);
    expect "churn: the pool is back at its capacity"
      (field [ "cache"; "entries" ] = Some 2.)
  | None -> expect "churn: status answered" false);
  send srv (Json.Obj [ ("op", Json.Str "shutdown") ]);
  expect "churn: server exits 0" (wait_exit srv = 0)

let () =
  (* A stuck server must fail the alias, not hang CI. *)
  ignore (Unix.alarm 300);
  test_identity_and_warmth ();
  test_chaos_isolation ();
  test_protocol_errors ();
  test_jobs_zero ();
  test_sigint_drain ();
  test_socket_mode ();
  test_churn ();
  finish "deviation(s) from the --serve contract"
