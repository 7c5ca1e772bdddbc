(* Units for the check-server building blocks: the JSON codec, the
   frame layer, protocol parsing and reply shapes, the warm-manager
   cache, and the extracted engine (including the per-check
   cancellation scoping the server depends on).  The end-to-end server
   process is exercised by serve_smoke (dune build @serve-smoke). *)

module Json = Server.Json
module Frame = Server.Frame
module Protocol = Server.Protocol
module Cache = Server.Cache
module Engine = Server.Engine
module Overload = Server.Overload
module Daemon = Server.Daemon
module Pool = Parallel.Pool

(* ------------------------------------------------------------------ *)
(* Json *)

let test_json_print () =
  let open Json in
  Alcotest.(check string)
    "compact object"
    {|{"a":1,"b":[true,null,"x"],"c":{"d":-2.5}}|}
    (to_string
       (Obj
          [
            ("a", Num 1.);
            ("b", Arr [ Bool true; Null; Str "x" ]);
            ("c", Obj [ ("d", Num (-2.5)) ]);
          ]));
  Alcotest.(check string)
    "integral floats print without fraction" "9007199254740992"
    (to_string (Num 9007199254740992.));
  Alcotest.(check string)
    "string escapes" {|"a\"b\\c\nd\u0001"|}
    (to_string (Str "a\"b\\c\nd\001"))

let test_json_parse () =
  let open Json in
  (match of_string {| {"k": [1, -2.5e2, "sé😀"], "t": true} |} with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok v ->
    Alcotest.(check (option int)) "int member" (Some 1)
      (Option.bind (member "k" v) to_list
      |> Fun.flip Option.bind (function x :: _ -> Some x | [] -> None)
      |> Fun.flip Option.bind to_int);
    Alcotest.(check (option bool)) "bool member" (Some true)
      (Option.bind (member "t" v) to_bool);
    let s =
      Option.bind (member "k" v) to_list |> Option.get |> fun l ->
      List.nth l 2 |> to_str |> Option.get
    in
    (* é is é (2 UTF-8 bytes); the surrogate pair is U+1F600 (4). *)
    Alcotest.(check string) "unicode escapes decode to UTF-8"
      "s\xc3\xa9\xf0\x9f\x98\x80" s);
  (match of_string "[1,2] trailing" with
  | Ok _ -> Alcotest.fail "trailing garbage accepted"
  | Error _ -> ());
  (match of_string {|{"a":}|} with
  | Ok _ -> Alcotest.fail "missing value accepted"
  | Error _ -> ())

let test_json_roundtrip () =
  let open Json in
  let v =
    Obj
      [
        ("id", Str "req-1");
        ("n", Num 42.);
        ("nested", Arr [ Obj [ ("deep", Bool false) ]; Num 0.5 ]);
        ("text", Str "line1\nline2\twith \"quotes\" and \\");
      ]
  in
  match of_string (to_string v) with
  | Ok v' -> Alcotest.(check bool) "print/parse round-trip" true (v = v')
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e

(* ------------------------------------------------------------------ *)
(* Frame *)

let test_frame_roundtrip () =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      Frame.write w "hello";
      Frame.write w "";
      Alcotest.(check (option string)) "first frame" (Some "hello")
        (Frame.read r);
      Alcotest.(check (option string)) "empty frame" (Some "") (Frame.read r);
      (* Larger than the pipe buffer, so the writer must run in its own
         thread while we read: exercises the partial-write loop. *)
      let writer =
        Thread.create
          (fun () ->
            Frame.write w (String.make 70000 'x');
            Unix.close w)
          ()
      in
      Alcotest.(check (option int)) "large frame" (Some 70000)
        (Option.map String.length (Frame.read r));
      Thread.join writer;
      Alcotest.(check (option string)) "clean EOF" None (Frame.read r))

let test_frame_oversized () =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      (* A header announcing 2^31 - 1 bytes must be rejected before any
         allocation happens. *)
      let bad = Bytes.of_string "\x7f\xff\xff\xff" in
      let _ = Unix.write w bad 0 4 in
      match Frame.read r with
      | exception Frame.Oversized _ -> ()
      | Some _ | None -> Alcotest.fail "oversized header accepted")

let test_frame_should_stop () =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      (* A half-written frame followed by EOF is a torn stream. *)
      let _ = Unix.write w (Bytes.of_string "\x00\x00\x00\x05ab") 0 6 in
      Unix.close w;
      match Frame.read r with
      | exception Frame.Closed -> ()
      | Some _ | None -> Alcotest.fail "torn frame not reported")

let test_frame_split_header () =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      (* The 4-byte length prefix arrives in two separate writes, then
         the payload in two more: the header loop must reassemble it
         rather than treat a short read as a malformed frame. *)
      let writer =
        Thread.create
          (fun () ->
            let put s =
              let b = Bytes.of_string s in
              ignore (Unix.write w b 0 (Bytes.length b));
              Thread.yield ();
              Unix.sleepf 0.01
            in
            put "\x00\x00";
            put "\x00\x05";
            put "he";
            put "llo";
            Unix.close w)
          ()
      in
      Alcotest.(check (option string)) "split header reassembled"
        (Some "hello") (Frame.read r);
      Thread.join writer)

let test_frame_oversized_bytewise () =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
    (fun () ->
      (* An oversize header dribbling in one byte at a time must still
         be rejected as Oversized once complete — never a partial-read
         misparse, never an allocation of the announced size. *)
      let writer =
        Thread.create
          (fun () ->
            String.iter
              (fun c ->
                let b = Bytes.make 1 c in
                ignore (Unix.write w b 0 1);
                Thread.yield ();
                Unix.sleepf 0.01)
              "\x7f\xff\xff\xff";
            Unix.close w)
          ()
      in
      (match Frame.read r with
      | exception Frame.Oversized n ->
        Alcotest.(check int) "announced size reported" 0x7fffffff n
      | Some _ | None -> Alcotest.fail "byte-by-byte oversize accepted");
      Thread.join writer)

let test_frame_eof_mid_header () =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () ->
      try Unix.close r with Unix.Unix_error _ -> ())
    (fun () ->
      (* EOF after two header bytes: a torn stream, not a clean end. *)
      let _ = Unix.write w (Bytes.of_string "\x00\x00") 0 2 in
      Unix.close w;
      match Frame.read r with
      | exception Frame.Closed -> ()
      | Some _ | None -> Alcotest.fail "EOF mid-header not reported")

(* ------------------------------------------------------------------ *)
(* Protocol *)

let test_protocol_parse_check () =
  match
    Protocol.parse_request
      {|{"op":"check","id":"r1","model":"MODULE main","specs":["EF x"],
         "options":{"fair":false,"retries":2,"timeout":1.5,
                    "inject":"mk:10","reorder":"static","stats":true}}|}
  with
  | Ok (Protocol.Check { id; model; specs; options }) ->
    Alcotest.(check string) "id" "r1" id;
    Alcotest.(check string) "model" "MODULE main" model;
    Alcotest.(check (list string)) "specs" [ "EF x" ] specs;
    Alcotest.(check bool) "fair" false options.Engine.fair;
    Alcotest.(check bool) "stats" true options.Engine.stats;
    Alcotest.(check int) "retries" 2 options.Engine.retries;
    Alcotest.(check (option (float 1e-9))) "timeout" (Some 1.5)
      options.Engine.timeout;
    Alcotest.(check bool) "inject parsed" true
      (options.Engine.inject = Some (Engine.Fault (Bdd.Fault.Mk, 10)));
    Alcotest.(check bool) "reorder static" true
      (options.Engine.reorder = `Static);
    (* The removed sifting modes are refused, naming the valid ones. *)
    List.iter
      (fun mode ->
        match
          Protocol.parse_request
            (Printf.sprintf
               {|{"op":"check","id":"r2","model":"m","options":{"reorder":%S}}|}
               mode)
        with
        | Error e ->
          Alcotest.(check string) ("reorder " ^ mode ^ " refused")
            (Printf.sprintf
               "\"reorder\": unknown mode %S (none or static)" mode)
            e
        | Ok _ -> Alcotest.failf "reorder %s accepted" mode)
      [ "once"; "auto" ];
    (* The removed "fair_engine" selector is an unknown field now, and
       unknown fields are ignored. *)
    (match
       Protocol.parse_request
         {|{"op":"check","id":"r3","model":"m","options":{"fair_engine":"lockstep"}}|}
     with
    | Ok (Protocol.Check { options; _ }) ->
      Alcotest.(check bool) "fair_engine ignored" true
        (options = Protocol.default_options)
    | Ok _ | Error _ -> Alcotest.fail "fair_engine request must parse")
  | Ok _ -> Alcotest.fail "parsed as the wrong op"
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_protocol_defaults () =
  match
    Protocol.parse_request {|{"op":"check","id":"a","model":"m"}|}
  with
  | Ok (Protocol.Check { options; _ }) ->
    Alcotest.(check bool) "defaults are the CLI defaults" true
      (options = Protocol.default_options)
  | Ok _ | Error _ -> Alcotest.fail "minimal check request must parse"

let test_protocol_errors () =
  let expect_err payload =
    match Protocol.parse_request payload with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted: %s" payload
  in
  expect_err "not json at all";
  expect_err {|{"op":"frobnicate"}|};
  expect_err {|{"op":"check","id":"a"}|};
  (* model missing *)
  expect_err {|{"op":"check","id":"a","model":"m","options":{"retries":-1}}|};
  expect_err {|{"op":"check","id":"a","model":"m","options":{"timeout":0}}|};
  expect_err
    {|{"op":"check","id":"a","model":"m","options":{"inject":"bogus:1"}}|};
  expect_err {|{"op":"cancel"}|};
  (* id missing *)
  match Protocol.parse_request {|{"op":"ping"}|} with
  | Ok Protocol.Ping -> ()
  | _ -> Alcotest.fail "ping must parse"

let test_protocol_reply_shapes () =
  let reply =
    Protocol.check_reply ~id:"r9" ~exit_code:1
      ~verdicts:
        [
          {
            Protocol.sv_name = "EF x";
            sv_report =
              { Engine.verdict = Engine.Fails; cert_failed = false };
          };
          {
            Protocol.sv_name = "AG y";
            sv_report =
              {
                Engine.verdict = Engine.Undetermined "deadline";
                cert_failed = false;
              };
          };
        ]
      ~output:"-- text\n" ~warm:true ~reach_reused:true ~reach_states:12.
      ~time_ms:3.25 ()
  in
  match Json.of_string reply with
  | Error e -> Alcotest.failf "reply is not JSON: %s" e
  | Ok v ->
    let str k = Option.bind (Json.member k v) Json.to_str in
    let num k = Option.bind (Json.member k v) Json.to_num in
    Alcotest.(check (option string)) "id" (Some "r9") (str "id");
    Alcotest.(check (option string)) "status" (Some "ok") (str "status");
    Alcotest.(check (option (float 0.))) "exit_code" (Some 1.)
      (num "exit_code");
    Alcotest.(check (option bool)) "warm" (Some true)
      (Option.bind (Json.member "warm" v) Json.to_bool);
    let verdicts =
      Option.bind (Json.member "verdicts" v) Json.to_list |> Option.get
    in
    Alcotest.(check int) "two verdicts" 2 (List.length verdicts);
    let second = List.nth verdicts 1 in
    Alcotest.(check (option string)) "undetermined reason"
      (Some "deadline")
      (Option.bind (Json.member "reason" second) Json.to_str)

(* ------------------------------------------------------------------ *)
(* Cache *)

let test_cache_warm_flag () =
  let cache = Cache.create ~capacity:4 in
  let key = Cache.digest ~source:"m" ~partitioned:false ~static_order:false in
  let e1, warm1 = Cache.acquire cache ~key in
  Alcotest.(check bool) "first acquire is cold" false warm1;
  (* Still cold on re-acquire: nothing was compiled into the entry. *)
  let e2, warm2 = Cache.acquire cache ~key in
  Alcotest.(check bool) "same entry" true (e1 == e2);
  Alcotest.(check bool) "uncompiled entry is not warm" false warm2;
  e1.Cache.compiled <- None;
  Cache.release cache e1;
  Cache.release cache e2;
  Alcotest.(check int) "entry pooled" 1 (Cache.size cache)

let test_cache_key_includes_options () =
  let d = Cache.digest ~source:"m" in
  Alcotest.(check bool) "partitioned changes the key" true
    (d ~partitioned:false ~static_order:false
    <> d ~partitioned:true ~static_order:false);
  Alcotest.(check bool) "static order changes the key" true
    (d ~partitioned:false ~static_order:false
    <> d ~partitioned:false ~static_order:true)

let test_cache_eviction () =
  let cache = Cache.create ~capacity:1 in
  let key n = Cache.digest ~source:n ~partitioned:false ~static_order:false in
  let e1, _ = Cache.acquire cache ~key:(key "a") in
  (* e1 is busy: inserting a second entry must not evict it. *)
  let e2, _ = Cache.acquire cache ~key:(key "b") in
  Alcotest.(check int) "busy entries are kept" 2 (Cache.size cache);
  Cache.release cache e1;
  Cache.release cache e2;
  (* A third key now evicts both released idle entries, bringing the
     pool back to its configured capacity. *)
  let _, _ = Cache.acquire cache ~key:(key "c") in
  Alcotest.(check int) "idle LRU evicted down to capacity" 1
    (Cache.size cache);
  let e1', warm = Cache.acquire cache ~key:(key "a") in
  Alcotest.(check bool) "evicted entry was really dropped" true (e1 != e1');
  Alcotest.(check bool) "and comes back cold" false warm

(* ------------------------------------------------------------------ *)
(* Engine *)

let mutex_source =
  {|MODULE main
VAR p : {idle, try, crit};
ASSIGN
  init(p) := idle;
  next(p) := case
    p = idle : {idle, try};
    p = try  : {try, crit};
    p = crit : idle;
  esac;
SPEC AG !(p = crit & p = idle)
|}

let compile source = Smv.load_string source

let check_to_string ?(cancel = Atomic.make false) compiled (name, spec) =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let r =
    Engine.check_one ppf compiled.Smv.Compile.model
      ~opts:Engine.default ~cancel
      ~clusters:(fun () -> compiled.Smv.Compile.clusters)
      (name, spec)
  in
  Format.pp_print_flush ppf ();
  (r, Buffer.contents buf)

let test_engine_check_one () =
  let compiled = compile mutex_source in
  match compiled.Smv.Compile.specs with
  | [ spec ] ->
    let r, out = check_to_string compiled spec in
    Alcotest.(check bool) "verdict holds" true (r.Engine.verdict = Engine.Holds);
    Alcotest.(check string) "exact output line"
      (Printf.sprintf "-- specification %s is true\n" (fst spec))
      out
  | _ -> Alcotest.fail "expected exactly one SPEC"

let test_engine_private_cancellation () =
  let compiled = compile mutex_source in
  let spec = List.hd compiled.Smv.Compile.specs in
  (* A pre-cancelled flag stops this check at its first poll point... *)
  let cancel = Atomic.make true in
  let r, _ = check_to_string ~cancel compiled spec in
  (match r.Engine.verdict with
  | Engine.Undetermined _ -> ()
  | Engine.Holds | Engine.Fails ->
    Alcotest.fail "cancelled check still produced a verdict");
  (* ...and, the point of per-check flags: an independent check of the
     same spec with its own (clear) flag is entirely unaffected. *)
  let r2, _ = check_to_string compiled spec in
  Alcotest.(check bool) "other checks unaffected" true
    (r2.Engine.verdict = Engine.Holds)

let test_engine_exit_codes () =
  let rep v = { Engine.verdict = v; cert_failed = false } in
  let check name expected reports =
    Alcotest.(check int) name expected
      (Engine.exit_code ~interrupted:false reports)
  in
  check "all hold" 0 [ rep Engine.Holds; rep Engine.Holds ];
  check "some false" 1 [ rep Engine.Holds; rep Engine.Fails ];
  check "undetermined beats false" 2
    [ rep Engine.Fails; rep (Engine.Undetermined "deadline") ];
  Alcotest.(check int) "cert failure beats everything" 3
    (Engine.exit_code ~interrupted:false
       [ { Engine.verdict = Engine.Undetermined "cert"; cert_failed = true } ]);
  Alcotest.(check int) "interrupted forces 2" 2
    (Engine.exit_code ~interrupted:true [ rep Engine.Holds ])

let test_engine_fault_is_scoped () =
  let compiled = compile mutex_source in
  let m = compiled.Smv.Compile.model in
  let spec = List.hd compiled.Smv.Compile.specs in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let r =
    Engine.check_one ppf m ~opts:Engine.default ~cancel:(Atomic.make false)
      ~clusters:(fun () -> compiled.Smv.Compile.clusters)
      ~inject:(Bdd.Fault.Step, 1) spec
  in
  (match r.Engine.verdict with
  | Engine.Undetermined _ -> ()
  | _ -> Alcotest.fail "injected fault did not trip the check");
  Alcotest.(check (option (pair (of_pp Fmt.nop) int)))
    "fault disarmed on exit" None
    (Bdd.Fault.armed m.Kripke.man);
  (* The next check on the same manager runs fault-free. *)
  let r2, _ = check_to_string compiled spec in
  Alcotest.(check bool) "clean follow-up check" true
    (r2.Engine.verdict = Engine.Holds)

(* ------------------------------------------------------------------ *)
(* Overload protection: pool admission, shed replies, status shapes,
   budget defaults, the watchdog ladder *)

let test_pool_admission () =
  let pool = Pool.create ~max_pending:2 1 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  (* Gate the single worker so queued tasks stay queued. *)
  let gate = Atomic.make false in
  let blocker =
    Pool.submit pool (fun () ->
        while not (Atomic.get gate) do
          Domain.cpu_relax ()
        done)
  in
  (* Wait until the worker holds the blocker (pending drops to 0). *)
  while Pool.pending pool > 0 do
    Domain.cpu_relax ()
  done;
  let f1 = Pool.try_submit pool (fun () -> 1) in
  let f2 = Pool.try_submit pool (fun () -> 2) in
  Alcotest.(check bool) "two admissions fit the bound" true
    (f1 <> None && f2 <> None);
  Alcotest.(check int) "queue depth visible" 2 (Pool.pending pool);
  Alcotest.(check bool) "third admission shed" true
    (Pool.try_submit pool (fun () -> 3) = None);
  Alcotest.(check bool) "plain submit ignores the bound" true
    (ignore (Pool.submit pool (fun () -> 4));
     true);
  Alcotest.(check bool) "blocker not settled while held" false
    (Pool.is_settled blocker);
  Atomic.set gate true;
  ignore (Pool.await blocker);
  Alcotest.(check bool) "settled after completion" true
    (Pool.is_settled blocker);
  Alcotest.(check int) "queued results delivered" 1
    (Option.get (Option.map Pool.await_exn f1));
  ignore (Option.map Pool.await f2)

let test_protocol_status_parse () =
  match Protocol.parse_request {|{"op":"status"}|} with
  | Ok Protocol.Status -> ()
  | Ok _ -> Alcotest.fail "parsed as the wrong op"
  | Error e -> Alcotest.failf "status request rejected: %s" e

let test_protocol_overloaded_reply () =
  let reply =
    Protocol.overloaded_reply ~id:"r3" ~reason:"queue" ~queue_depth:8
      ~retry_after_ms:125.
  in
  match Json.of_string reply with
  | Error e -> Alcotest.failf "reply is not JSON: %s" e
  | Ok v ->
    let str k = Option.bind (Json.member k v) Json.to_str in
    let num k = Option.bind (Json.member k v) Json.to_num in
    Alcotest.(check (option string)) "id" (Some "r3") (str "id");
    Alcotest.(check (option string)) "status" (Some "overloaded")
      (str "status");
    Alcotest.(check (option string)) "reason" (Some "queue") (str "reason");
    Alcotest.(check (option (float 0.))) "queue_depth" (Some 8.)
      (num "queue_depth");
    Alcotest.(check (option (float 0.))) "retry_after_ms" (Some 125.)
      (num "retry_after_ms")

let test_protocol_status_reply () =
  let reply =
    Protocol.status_reply
      {
        Protocol.ss_uptime_s = 12.5;
        ss_workers = 2;
        ss_queue_depth = 3;
        ss_max_pending = Some 8;
        ss_inflight = 5;
        ss_shed_queue = 7;
        ss_shed_inflight = 1;
        ss_shed_cold = 2;
        ss_watchdog_evictions = 4;
        ss_cache_clamps = 1;
        ss_level_transitions = 6;
        ss_pressure_level = 2;
        ss_mem_live_nodes = 12345;
        ss_mem_high_water = None;
        ss_respawns = 0;
        ss_avg_check_ms = Some 42.5;
        ss_faults_fired = 0;
        ss_snapshots = 2;
        ss_restores = 1;
        ss_quarantines = 0;
        ss_restarts = 3;
        ss_checks = 7;
        ss_cache_capacity = 8;
        ss_models =
          [
            {
              Protocol.ms_key = "k1";
              ms_busy = 1;
              ms_uses = 9;
              ms_warm = true;
              ms_live_nodes = 12345;
              ms_clamped = false;
            };
          ];
      }
  in
  match Json.of_string reply with
  | Error e -> Alcotest.failf "status reply is not JSON: %s" e
  | Ok v ->
    let num k = Option.bind (Json.member k v) Json.to_num in
    Alcotest.(check (option string)) "status"
      (Some "ok")
      (Option.bind (Json.member "status" v) Json.to_str);
    Alcotest.(check (option string)) "op"
      (Some "status")
      (Option.bind (Json.member "op" v) Json.to_str);
    Alcotest.(check (option (float 0.))) "queue_depth" (Some 3.)
      (num "queue_depth");
    Alcotest.(check (option (float 0.))) "max_pending" (Some 8.)
      (num "max_pending");
    Alcotest.(check bool) "absent high water is null" true
      (Json.member "mem_high_water" v = Some Json.Null);
    let counters = Json.member "counters" v |> Option.get in
    Alcotest.(check (option (float 0.))) "shed_queue" (Some 7.)
      (Option.bind (Json.member "shed_queue" counters) Json.to_num);
    Alcotest.(check (option (float 0.))) "watchdog_evictions" (Some 4.)
      (Option.bind (Json.member "watchdog_evictions" counters) Json.to_num);
    Alcotest.(check (option (float 0.))) "snapshots" (Some 2.)
      (Option.bind (Json.member "snapshots" counters) Json.to_num);
    Alcotest.(check (option (float 0.))) "restores" (Some 1.)
      (Option.bind (Json.member "restores" counters) Json.to_num);
    Alcotest.(check (option (float 0.))) "quarantines" (Some 0.)
      (Option.bind (Json.member "quarantines" counters) Json.to_num);
    Alcotest.(check (option (float 0.))) "restarts" (Some 3.)
      (Option.bind (Json.member "restarts" counters) Json.to_num);
    Alcotest.(check (option (float 0.))) "checks" (Some 7.)
      (Option.bind (Json.member "checks" counters) Json.to_num);
    let cache = Json.member "cache" v |> Option.get in
    Alcotest.(check (option (float 0.))) "cache entries" (Some 1.)
      (Option.bind (Json.member "entries" cache) Json.to_num);
    let models =
      Option.bind (Json.member "models" cache) Json.to_list |> Option.get
    in
    Alcotest.(check int) "one model row" 1 (List.length models);
    let m0 = List.hd models in
    Alcotest.(check (option string)) "model key" (Some "k1")
      (Option.bind (Json.member "key" m0) Json.to_str);
    Alcotest.(check (option bool)) "model warm" (Some true)
      (Option.bind (Json.member "warm" m0) Json.to_bool)

let daemon_cfg ?default_timeout ?default_node_limit ?max_timeout () =
  {
    Daemon.socket = None;
    jobs = 1;
    capacity = 1;
    debug = false;
    max_pending = None;
    max_inflight = None;
    default_timeout;
    default_node_limit;
    max_timeout;
    mem_high_water = None;
    state_dir = None;
    crash_after = None;
    restarts = 0;
  }

let test_daemon_apply_defaults () =
  let o = Protocol.default_options in
  let get cfg o = (Daemon.apply_defaults cfg o).Engine.timeout in
  Alcotest.(check (option (float 1e-9))) "no defaults: untouched" None
    (get (daemon_cfg ()) o);
  Alcotest.(check (option (float 1e-9))) "default fills the gap" (Some 5.)
    (get (daemon_cfg ~default_timeout:5. ()) o);
  Alcotest.(check (option (float 1e-9))) "request wins over default"
    (Some 2.)
    (get
       (daemon_cfg ~default_timeout:5. ())
       { o with Engine.timeout = Some 2. });
  Alcotest.(check (option (float 1e-9))) "ceiling clamps the request"
    (Some 3.)
    (get
       (daemon_cfg ~max_timeout:3. ())
       { o with Engine.timeout = Some 60. });
  Alcotest.(check (option (float 1e-9)))
    "ceiling applies even with no request budget" (Some 3.)
    (get (daemon_cfg ~max_timeout:3. ()) o);
  Alcotest.(check (option (float 1e-9))) "below the ceiling: honoured"
    (Some 1.)
    (get
       (daemon_cfg ~max_timeout:3. ())
       { o with Engine.timeout = Some 1. });
  let node cfg o = (Daemon.apply_defaults cfg o).Engine.node_limit in
  Alcotest.(check (option int)) "node default fills the gap" (Some 100)
    (node (daemon_cfg ~default_node_limit:100 ()) o);
  Alcotest.(check (option int)) "request node limit wins" (Some 7)
    (node
       (daemon_cfg ~default_node_limit:100 ())
       { o with Engine.node_limit = Some 7 })

let test_overload_retry_hint () =
  let ov = Overload.create ~log:ignore () in
  Alcotest.(check (option (float 1e-9))) "no history yet" None
    (Overload.avg_check_s ov);
  (* Before any completion the hint falls back to a 50 ms mean. *)
  Alcotest.(check (float 1e-9)) "cold hint" 50.
    (Overload.retry_after_ms ov ~queue_depth:0 ~workers:1);
  Overload.admitted ov;
  Alcotest.(check int) "admitted counted" 1 (Overload.inflight ov);
  Overload.finished ov 0.1;
  Overload.finished ov 0.3;
  Alcotest.(check int) "finished drains inflight" 0 (Overload.inflight ov);
  Alcotest.(check int) "finished checks counted" 2
    (Overload.stats ov).Overload.checks;
  Alcotest.(check (option (float 1e-9))) "rolling mean" (Some 0.2)
    (Overload.avg_check_s ov);
  (* 5 queued ahead + this one = 6 slots over 2 workers = 3 rounds of
     the 200 ms mean. *)
  Alcotest.(check (float 1e-9)) "scaled hint" 600.
    (Overload.retry_after_ms ov ~queue_depth:5 ~workers:2);
  let s = Overload.stats ov in
  Overload.shed ov Overload.Queue_full;
  Overload.shed ov Overload.Memory_pressure;
  let s' = Overload.stats ov in
  Alcotest.(check int) "shed_queue counted" (s.Overload.shed_queue + 1)
    s'.Overload.shed_queue;
  Alcotest.(check int) "shed_cold counted" (s.Overload.shed_cold + 1)
    s'.Overload.shed_cold

(* Put a real compiled model into a cache entry so live_nodes has
   something to measure. *)
let warm_into cache source =
  let key = Cache.digest ~source ~partitioned:false ~static_order:false in
  let e, _ = Cache.acquire cache ~key in
  e.Cache.compiled <- Some (compile source);
  Cache.release cache e;
  key

let test_cache_pressure_hooks () =
  let cache = Cache.create ~capacity:4 in
  let key = warm_into cache mutex_source in
  Alcotest.(check bool) "warm model visible" true (Cache.is_warm cache ~key);
  Alcotest.(check bool) "cold model not" false
    (Cache.is_warm cache ~key:"nope");
  let live = Cache.live_nodes cache in
  Alcotest.(check bool) "live nodes measured" true (live > 0);
  (* Clamp, inspect, unclamp. *)
  Alcotest.(check int) "one idle manager clamped" 1
    (Cache.clamp_idle cache ~limit:64);
  (match Cache.snapshot cache with
  | [ i ] ->
    Alcotest.(check bool) "snapshot: warm" true i.Cache.i_warm;
    Alcotest.(check bool) "snapshot: clamped" true i.Cache.i_clamped;
    Alcotest.(check bool) "snapshot: live nodes" true (i.Cache.i_live > 0)
  | l -> Alcotest.failf "expected one snapshot row, got %d" (List.length l));
  Alcotest.(check int) "already clamped: no-op" 0
    (Cache.clamp_idle cache ~limit:64);
  Alcotest.(check int) "unclamped" 1 (Cache.unclamp_idle cache);
  (* Eviction respects busy entries... *)
  let e, _ = Cache.acquire cache ~key in
  Alcotest.(check int) "busy entry never evicted" 0
    (Cache.evict_idle_until cache ~target:0);
  Cache.release cache e;
  (* ...and drops idle ones until the target is met. *)
  Alcotest.(check int) "idle entry evicted under pressure" 1
    (Cache.evict_idle_until cache ~target:0);
  Alcotest.(check bool) "evicted model is cold again" false
    (Cache.is_warm cache ~key);
  Alcotest.(check int) "nothing left to measure" 0 (Cache.live_nodes cache)

let test_overload_watchdog_ladder () =
  let cache = Cache.create ~capacity:4 in
  let key = warm_into cache mutex_source in
  (* High water of one node: the warm mutex model is always over it. *)
  let ov = Overload.create ~mem_high_water:1 ~log:ignore () in
  Alcotest.(check int) "starts at level 0" 0 (Overload.level ov);
  Alcotest.(check bool) "cold admissions allowed" true
    (Overload.admit_cold ov);
  (* A busy entry can be neither evicted nor clamped: the ladder must
     climb straight to refusing cold admissions. *)
  let e, _ = Cache.acquire cache ~key in
  Overload.watchdog ov cache;
  Alcotest.(check int) "busy + over water: level 3" 3 (Overload.level ov);
  Alcotest.(check bool) "cold admissions refused" false
    (Overload.admit_cold ov);
  Cache.release cache e;
  (* Once the entry is idle the ladder evicts it and pressure drops. *)
  Overload.watchdog ov cache;
  let s = Overload.stats ov in
  Alcotest.(check bool) "idle entry evicted" true (s.Overload.evictions >= 1);
  Alcotest.(check bool) "below level 3 again" true (s.Overload.level < 3);
  Alcotest.(check bool) "cold admissions restored" true
    (Overload.admit_cold ov);
  (* The next clear tick settles back to normal. *)
  Overload.watchdog ov cache;
  Overload.watchdog ov cache;
  Alcotest.(check int) "pressure cleared: level 0" 0 (Overload.level ov);
  Alcotest.(check bool) "transitions counted" true
    ((Overload.stats ov).Overload.transitions >= 2);
  (* Unarmed watchdog: a no-op regardless of pressure. *)
  let ov0 = Overload.create ~log:ignore () in
  let _ = warm_into cache mutex_source in
  Overload.watchdog ov0 cache;
  Alcotest.(check int) "unarmed stays at level 0" 0 (Overload.level ov0)

(* ------------------------------------------------------------------ *)
(* Daemon: a request carrying an unparseable extra spec must come back
   as a structured error reply naming the offending text — never an
   escaped exception on a worker (which would kill the process, not
   the request).  Exercised against the real server binary over stdio
   pipes so the whole worker path is under test. *)

let test_daemon_bad_extra_spec () =
  let exe = Filename.concat (Filename.concat ".." "bin") "smv_check.exe" in
  let stdin_r, stdin_w = Unix.pipe ~cloexec:false () in
  let stdout_r, stdout_w = Unix.pipe ~cloexec:false () in
  let pid =
    Unix.create_process exe [| exe; "--serve" |] stdin_r stdout_w Unix.stderr
  in
  Unix.close stdin_r;
  Unix.close stdout_w;
  let send obj = Frame.write stdin_w (Json.to_string obj) in
  let recv () =
    match Frame.read stdout_r with
    | None -> Alcotest.fail "server closed the stream"
    | Some payload -> (
      match Json.of_string payload with
      | Ok v -> v
      | Error e -> Alcotest.fail ("bad JSON from server: " ^ e))
  in
  let str k v = Option.bind (Json.member k v) Json.to_str in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close stdin_w with Unix.Unix_error _ -> ());
      (try Unix.close stdout_r with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid))
    (fun () ->
      let check_req ~id specs =
        Json.Obj
          [
            ("op", Json.Str "check");
            ("id", Json.Str id);
            ("model", Json.Str mutex_source);
            ("specs", Json.Arr (List.map (fun s -> Json.Str s) specs));
          ]
      in
      send (check_req ~id:"bad" [ "AG (p = " ]);
      let v = recv () in
      Alcotest.(check (option string)) "structured error reply"
        (Some "error") (str "status" v);
      Alcotest.(check (option string)) "id echoed" (Some "bad") (str "id" v);
      (match str "error" v with
      | Some msg ->
        Alcotest.(check bool) "message names the offending spec text" true
          (Astring.String.is_infix ~affix:{|"AG (p = "|} msg)
      | None -> Alcotest.fail "error reply has no message");
      (* The worker survived: the same connection still answers, and a
         well-formed extra spec on the same (now warm) model runs. *)
      send (check_req ~id:"good" [ "EF (p = crit)" ]);
      let v2 = recv () in
      Alcotest.(check (option string)) "worker survived the bad spec"
        (Some "ok") (str "status" v2);
      send (Json.Obj [ ("op", Json.Str "shutdown") ]);
      ignore (recv ()))

(* One driver compiles extra specs for both front ends: a bad one reads
   the same on the CLI's stderr as in the server's error reply. *)
let test_bad_extra_spec_same_message () =
  let path = Filename.temp_file "bad_extra_spec" ".smv" in
  Out_channel.with_open_bin path (fun oc -> output_string oc mutex_source);
  let code, cli_out = Smoke.run [ path; "--spec"; "AG (p = " ] in
  Sys.remove path;
  Alcotest.(check int) "CLI: exit 3" 3 code;
  let srv = Smoke.spawn_server [] in
  Smoke.send srv
    (Json.Obj
       [
         ("op", Json.Str "check");
         ("id", Json.Str "bad");
         ("model", Json.Str mutex_source);
         ("specs", Json.Arr [ Json.Str "AG (p = " ]);
       ]);
  let reply = Smoke.recv srv in
  Smoke.send srv (Json.Obj [ ("op", Json.Str "shutdown") ]);
  ignore (Smoke.recv srv);
  ignore (Smoke.wait_exit srv);
  Alcotest.(check (option string)) "server error = CLI stderr" (Some cli_out)
    (Option.map (fun msg -> msg ^ "\n") (Option.bind reply (Smoke.str "error")))

let suite =
  [
    Alcotest.test_case "json: compact printing" `Quick test_json_print;
    Alcotest.test_case "json: parsing" `Quick test_json_parse;
    Alcotest.test_case "json: round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "frame: round-trip and EOF" `Quick
      test_frame_roundtrip;
    Alcotest.test_case "frame: oversized header rejected" `Quick
      test_frame_oversized;
    Alcotest.test_case "frame: torn stream reported" `Quick
      test_frame_should_stop;
    Alcotest.test_case "frame: split header reassembled" `Quick
      test_frame_split_header;
    Alcotest.test_case "frame: oversize byte-by-byte" `Quick
      test_frame_oversized_bytewise;
    Alcotest.test_case "frame: EOF mid-header" `Quick
      test_frame_eof_mid_header;
    Alcotest.test_case "protocol: check request" `Quick
      test_protocol_parse_check;
    Alcotest.test_case "protocol: option defaults" `Quick
      test_protocol_defaults;
    Alcotest.test_case "protocol: malformed requests" `Quick
      test_protocol_errors;
    Alcotest.test_case "protocol: reply shapes" `Quick
      test_protocol_reply_shapes;
    Alcotest.test_case "cache: warm flag" `Quick test_cache_warm_flag;
    Alcotest.test_case "cache: key includes options" `Quick
      test_cache_key_includes_options;
    Alcotest.test_case "cache: LRU eviction spares busy entries" `Quick
      test_cache_eviction;
    Alcotest.test_case "engine: check_one output" `Quick
      test_engine_check_one;
    Alcotest.test_case "engine: per-check cancellation" `Quick
      test_engine_private_cancellation;
    Alcotest.test_case "engine: exit-code contract" `Quick
      test_engine_exit_codes;
    Alcotest.test_case "engine: fault injection is check-scoped" `Quick
      test_engine_fault_is_scoped;
    Alcotest.test_case "pool: bounded admission" `Quick test_pool_admission;
    Alcotest.test_case "protocol: status request" `Quick
      test_protocol_status_parse;
    Alcotest.test_case "protocol: overloaded reply shape" `Quick
      test_protocol_overloaded_reply;
    Alcotest.test_case "protocol: status reply shape" `Quick
      test_protocol_status_reply;
    Alcotest.test_case "daemon: server-side budget defaults" `Quick
      test_daemon_apply_defaults;
    Alcotest.test_case "overload: admission counters and retry hint" `Quick
      test_overload_retry_hint;
    Alcotest.test_case "cache: memory-pressure hooks" `Quick
      test_cache_pressure_hooks;
    Alcotest.test_case "overload: watchdog ladder" `Quick
      test_overload_watchdog_ladder;
    Alcotest.test_case "daemon: bad extra spec is a structured error" `Quick
      test_daemon_bad_extra_spec;
    Alcotest.test_case "driver: bad extra spec reads the same on both ends"
      `Quick test_bad_extra_spec_same_message;
  ]
