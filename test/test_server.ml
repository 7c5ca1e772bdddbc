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
                    "inject":"mk:10","stats":true}}|}
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
    (* The removed "fair_engine", "partitioned" and "reorder"
       selectors are unknown fields now, and unknown fields are
       ignored, whatever their value. *)
    List.iter
      (fun field ->
        match
          Protocol.parse_request
            (Printf.sprintf
               {|{"op":"check","id":"r3","model":"m","options":{%s}}|} field)
        with
        | Ok (Protocol.Check { options; _ }) ->
          Alcotest.(check bool) (field ^ " ignored") true
            (options = Protocol.default_options)
        | Ok _ | Error _ -> Alcotest.failf "%s request must parse" field)
      [
        {|"fair_engine":"lockstep"|};
        {|"partitioned":true|};
        {|"reorder":"static"|};
        {|"reorder":"none"|};
        {|"reorder":"once"|};
      ]
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
  let key = Cache.digest ~source:"m" in
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

let test_cache_eviction () =
  let cache = Cache.create ~capacity:1 in
  let key n = Cache.digest ~source:n in
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
      ~clusters:compiled.Smv.Compile.clusters
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
      ~clusters:compiled.Smv.Compile.clusters
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

(* counter-10 with the given specs (perfbench's witness-deep model). *)
let counter10_source specs =
  let b i = Printf.sprintf "b%d" i in
  String.concat ""
    ([ "MODULE main\nVAR\n" ]
    @ List.init 10 (fun i -> Printf.sprintf "  %s : boolean;\n" (b i))
    @ [ "ASSIGN\n" ]
    @ List.init 10 (fun i -> Printf.sprintf "  init(%s) := FALSE;\n" (b i))
    @ [ "  next(b0) := !b0;\n" ]
    @ List.init 9 (fun i ->
          Printf.sprintf "  next(%s) := !(%s <-> (%s));\n" (b (i + 1))
            (b (i + 1))
            (String.concat " & " (List.init (i + 1) b)))
    @ List.map (Printf.sprintf "SPEC %s\n") specs)

(* An injected probe fault is a function of the spec it is armed for:
   the universal spec recovers by the same rung whether it is checked
   alone or after two deep EF witnesses. *)
let test_engine_fault_per_spec () =
  let value v =
    String.concat " & "
      (List.init 10 (fun i ->
           (if (v lsr i) land 1 = 1 then "" else "!") ^ Printf.sprintf "b%d" i))
  in
  let ag = "AG (b0 -> EF !b0)" in
  let ag_line specs =
    let buf = Buffer.create 4096 in
    let ppf = Format.formatter_of_buffer buf in
    let opts =
      { Engine.default with
        retries = 2;
        inject = Some (Engine.Fault (Bdd.Fault.Cache_probe, 20)) }
    in
    (match
       Engine.run ppf (compile (counter10_source specs)) ~opts ~specs:[]
         ~cancel:(Atomic.make false) ~debug:false ~prepare:ignore
     with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg);
    Format.pp_print_flush ppf ();
    List.find
      (fun l -> String.starts_with ~prefix:"-- specification (AG" l)
      (String.split_on_char '\n' (Buffer.contents buf))
  in
  Alcotest.(check string) "same line alone and third" (ag_line [ ag ])
    (ag_line
       [ Printf.sprintf "EF (%s)" (value 1021);
         Printf.sprintf "EF (%s)" (value 959); ag ])

(* A laddered check leaves the model's variable order as the compiler
   installed it: no rung reorders, so a pooled model's later requests
   see the same manager. *)
let test_engine_ladder_keeps_order () =
  let compiled =
    Smv.load_file (Filename.concat "../examples/models" "mutex.smv")
  in
  let man = compiled.Smv.Compile.model.Kripke.man in
  let before = Bdd.Reorder.order man in
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  let opts =
    { Engine.default with certify = true; step_limit = Some 1; retries = 3 }
  in
  (match
     Engine.run ppf compiled ~opts ~specs:[] ~cancel:(Atomic.make false)
       ~debug:false ~prepare:ignore
   with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg);
  Format.pp_print_flush ppf ();
  Alcotest.(check (array int)) "variable order unchanged" before
    (Bdd.Reorder.order man);
  Alcotest.(check bool) "the ladder climbed past gc-retry" true
    (Astring.String.is_infix ~affix:"via degraded" (Buffer.contents buf))

(* ------------------------------------------------------------------ *)
(* Overload protection: pool admission, shed replies, status shapes,
   budget defaults, the watchdog ladder *)

let test_pool_admission () =
  let pool = Pool.create ~max_pending:2 1 in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  (* Gate the single worker so queued tasks stay queued. *)
  let gate = Atomic.make false in
  let blocker =
    Option.get
      (Pool.try_submit pool (fun () ->
           while not (Atomic.get gate) do
             Domain.cpu_relax ()
           done))
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
        ss_avg_check_ms = Some 42.5;
        ss_faults_fired = 0;
        ss_snapshots = 2;
        ss_restores = 1;
        ss_quarantines = 0;
        ss_restarts = 3;
        ss_checks = 7;
        ss_cache_capacity = 8;
        ss_cache_floor = 640;
        ss_collections = 5;
        ss_collected_nodes = 61168;
        ss_models =
          [
            {
              Protocol.ms_key = "k1";
              ms_busy = 1;
              ms_uses = 9;
              ms_warm = true;
              ms_live_nodes = 12345;
              ms_clamped = false;
              ms_memo_sets = 4;
              ms_memo_layers = 21;
              ms_cost = 71175;
              ms_credit = 71815;
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
    Alcotest.(check (option (float 0.))) "collections" (Some 5.)
      (Option.bind (Json.member "collections" counters) Json.to_num);
    Alcotest.(check (option (float 0.))) "collected_nodes" (Some 61168.)
      (Option.bind (Json.member "collected_nodes" counters) Json.to_num);
    let cache = Json.member "cache" v |> Option.get in
    Alcotest.(check (option (float 0.))) "cache entries" (Some 1.)
      (Option.bind (Json.member "entries" cache) Json.to_num);
    Alcotest.(check (option (float 0.))) "cache floor" (Some 640.)
      (Option.bind (Json.member "floor" cache) Json.to_num);
    let models =
      Option.bind (Json.member "models" cache) Json.to_list |> Option.get
    in
    Alcotest.(check int) "one model row" 1 (List.length models);
    let m0 = List.hd models in
    Alcotest.(check (option string)) "model key" (Some "k1")
      (Option.bind (Json.member "key" m0) Json.to_str);
    Alcotest.(check (option bool)) "model warm" (Some true)
      (Option.bind (Json.member "warm" m0) Json.to_bool);
    Alcotest.(check (option (float 0.))) "model memo sets" (Some 4.)
      (Option.bind (Json.member "memo_sets" m0) Json.to_num);
    Alcotest.(check (option (float 0.))) "model memo layers" (Some 21.)
      (Option.bind (Json.member "memo_layers" m0) Json.to_num);
    Alcotest.(check (option (float 0.))) "model cost" (Some 71175.)
      (Option.bind (Json.member "cost" m0) Json.to_num);
    Alcotest.(check (option (float 0.))) "model credit" (Some 71815.)
      (Option.bind (Json.member "credit" m0) Json.to_num)

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
  let key = Cache.digest ~source in
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
(* The pool's victim order: once-used entries first, then the least
   recently released, on every eviction path. *)

let pooled cache key =
  List.exists (fun i -> i.Cache.i_key = key) (Cache.snapshot cache)

let use cache key =
  let e, _ = Cache.acquire cache ~key in
  Cache.release cache e

let test_cache_one_offs_spare_reused () =
  let cache = Cache.create ~capacity:2 in
  let a = Cache.digest ~source:"a" and b = Cache.digest ~source:"b" in
  List.iter (fun k -> use cache k; use cache k) [ a; b ];
  for i = 1 to 20 do
    use cache (Cache.digest ~source:(Printf.sprintf "one-off %d" i));
    Alcotest.(check bool)
      (Printf.sprintf "both reused entries pooled after one-off %d" i)
      true
      (pooled cache a && pooled cache b)
  done;
  let e, _ = Cache.acquire cache ~key:(Cache.digest ~source:"held") in
  Alcotest.(check int) "a held one-off is pooled over capacity" 3
    (Cache.size cache);
  Cache.release cache e;
  Alcotest.(check int) "and evicts itself on release" 2 (Cache.size cache);
  Alcotest.(check bool) "the reused entries stay" true
    (pooled cache a && pooled cache b)

(* A model that becomes hot once the pool is full of reused entries:
   its first request is evicted on release, its second comes back as a
   remembered key and displaces the least recently released entry. *)
let test_cache_newly_hot_admitted () =
  let cache = Cache.create ~capacity:2 in
  let a = Cache.digest ~source:"a" and b = Cache.digest ~source:"b" in
  let c = Cache.digest ~source:"c" in
  List.iter (fun k -> use cache k; use cache k) [ a; b ];
  use cache c;
  Alcotest.(check bool) "the first request is not kept" false (pooled cache c);
  use cache (Cache.digest ~source:"one-off");
  use cache c;
  Alcotest.(check bool) "the second is" true (pooled cache c);
  Alcotest.(check bool) "in place of the least recently released" true
    ((not (pooled cache a)) && pooled cache b);
  use cache a;
  Alcotest.(check bool) "a reused entry evicted once is not remembered"
    false (pooled cache a)

let test_cache_restored_entry_survives () =
  let cache = Cache.create ~capacity:1 in
  let key = Cache.digest ~source:mutex_source in
  Alcotest.(check bool) "seeded" true
    (Cache.seed cache ~key ~uses:3 ~compiled:(compile mutex_source));
  for i = 1 to 5 do
    use cache (Cache.digest ~source:(Printf.sprintf "one-off %d" i))
  done;
  Alcotest.(check bool) "the restored entry is still warm" true
    (Cache.is_warm cache ~key)

let test_cache_watchdog_victim_order () =
  let cache = Cache.create ~capacity:4 in
  let reused = warm_into cache mutex_source in
  use cache reused;
  let once = warm_into cache (mutex_source ^ "SPEC AG TRUE\n") in
  (* [reused] was released first, but [once] has been used only once:
     the watchdog takes it first, like every other eviction path. *)
  Alcotest.(check int) "one eviction relieves the pressure" 1
    (Cache.evict_idle_until cache ~target:(Cache.live_nodes cache - 1));
  Alcotest.(check bool) "the once-used entry went" true
    ((not (pooled cache once)) && pooled cache reused)

(* ------------------------------------------------------------------ *)
(* The fixpoint memo: one per model, kept by the pool entry *)

let model_source name =
  In_channel.with_open_bin (Filename.concat "../examples/models" name)
    In_channel.input_all

(* GreedyDual credit: a request's entry is charged its cost (the nodes
   its compile allocated) by [Cache.after_request], its release sets
   its credit to the floor plus that cost, and a reused entry's
   eviction raises the floor to its credit. *)
let serve cache source =
  let key = Cache.digest ~source in
  let e, _ = Cache.acquire cache ~key in
  if e.Cache.compiled = None then e.Cache.compiled <- Some (compile source);
  Cache.after_request cache e;
  Cache.release cache e;
  key

let cost_of cache key =
  match List.find_opt (fun i -> i.Cache.i_key = key) (Cache.snapshot cache) with
  | Some i -> i.Cache.i_cost
  | None -> Alcotest.fail "the entry is not pooled"

(* The cost [Cache.after_request] charges a fresh compile of [source]. *)
let compile_cost source =
  1024 + Bdd.count_nodes (compile source).Smv.Compile.model.Kripke.man

(* Two requests: the first is evicted as once-used, the second comes
   back as a remembered key and enters as reused. *)
let serve_twice cache source =
  ignore (serve cache source);
  serve cache source

let test_cache_costly_outlives_cheaper () =
  let cache = Cache.create ~capacity:1 in
  let costly = serve_twice cache (model_source "philosophers.smv") in
  let cheap = serve_twice cache mutex_source in
  Alcotest.(check bool) "the costly entry stays" true (pooled cache costly);
  Alcotest.(check bool) "the cheaper one released after it goes" false
    (pooled cache cheap);
  Alcotest.(check int) "its cost is the nodes its compile allocated"
    (compile_cost (model_source "philosophers.smv"))
    (cost_of cache costly)

let test_cache_equal_costs_lru () =
  let cache = Cache.create ~capacity:2 in
  let variant tag = mutex_source ^ "-- " ^ tag ^ "\n" in
  let a = serve_twice cache (variant "a") in
  let b = serve_twice cache (variant "b") in
  Alcotest.(check int) "a comment does not change the cost"
    (cost_of cache a) (cost_of cache b);
  let c = serve_twice cache (variant "c") in
  Alcotest.(check bool) "the least recently released goes" true
    ((not (pooled cache a)) && pooled cache b && pooled cache c)

(* A costly entry that is no longer asked for: every round a cheaper
   model comes back as reused and is evicted at its credit, floor +
   cheap, which raises the floor by cheap.  The costly entry leaves on
   the first round whose credit reaches its own (a tie evicts the less
   recently released), round ceil(costly / cheap), and not before. *)
let test_cache_costly_ages_out () =
  let phil = model_source "philosophers.smv" in
  let costly_cost = compile_cost phil and cheap = compile_cost mutex_source in
  Alcotest.(check bool) "philosophers costs more than mutex" true
    (costly_cost > cheap);
  let bound = (costly_cost + cheap - 1) / cheap in
  let cache = Cache.create ~capacity:1 in
  let costly = serve_twice cache phil in
  for round = 1 to bound - 1 do
    ignore (serve_twice cache mutex_source);
    Alcotest.(check bool)
      (Printf.sprintf "round %d evicts the cheap entry" round)
      true (pooled cache costly);
    Alcotest.(check int)
      (Printf.sprintf "round %d raises the floor by its cost" round)
      (round * cheap) (Cache.credit_floor cache)
  done;
  let last = serve_twice cache mutex_source in
  Alcotest.(check bool)
    (Printf.sprintf "round %d evicts the costly entry" bound)
    true
    ((not (pooled cache costly)) && pooled cache last);
  Alcotest.(check int) "at its credit" costly_cost (Cache.credit_floor cache)

let test_cache_restored_entry_cost () =
  let cache = Cache.create ~capacity:1 in
  let source = model_source "philosophers.smv" in
  let key = Cache.digest ~source in
  let compiled = compile source in
  Alcotest.(check bool) "seeded" true (Cache.seed cache ~key ~uses:3 ~compiled);
  Alcotest.(check int) "charged its live nodes at seed"
    (1024 + Bdd.live_nodes compiled.Smv.Compile.model.Kripke.man)
    (cost_of cache key);
  let cheap = serve_twice cache mutex_source in
  Alcotest.(check bool) "the restored entry outlives a cheaper reused one"
    true
    (pooled cache key && not (pooled cache cheap))

let run_to_string ?memo ?(specs = []) ?(opts = Engine.default) compiled =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  match
    Engine.run ?memo ppf compiled ~opts ~specs ~cancel:(Atomic.make false)
      ~debug:false ~prepare:ignore
  with
  | Ok ((), o) ->
    Format.pp_print_flush ppf ();
    ( Buffer.contents buf,
      List.map (fun (_, r) -> r.Engine.verdict) o.Engine.verdicts )
  | Error msg -> Alcotest.fail msg

(* One daemon-shaped request on the pooled entry for [key]. *)
let request_on cache ~key ?specs ?opts () =
  let e, _ = Cache.acquire cache ~key in
  Fun.protect ~finally:(fun () -> Cache.release cache e) @@ fun () ->
  fst
    (run_to_string ~memo:(Cache.memo e) ?specs ?opts
       (Option.get e.Cache.compiled))

let certify = { Engine.default with certify = true }

(* Without --certify, whose certificate computes its own sets on
   purpose.  philosophers.smv's trace is a fair lasso: the memo keeps
   it, so its closing sweeps do not run again either. *)
let test_memo_warm_repeat () =
  List.iter
    (fun name ->
      let cache = Cache.create ~capacity:2 in
      let key = warm_into cache (model_source name) in
      let cold = request_on cache ~key () in
      Ctl.Check.reset_fixpoint_stats ();
      let warm = request_on cache ~key () in
      Alcotest.(check string) (name ^ ": warm output byte-identical") cold warm;
      Alcotest.(check int) (name ^ ": 0 EU iterations on the warm repeat") 0
        (Ctl.Check.fixpoint_stats ()).Ctl.Check.eu_iterations)
    [ "mutex.smv"; "counter12.smv"; "ring.smv"; "cache.smv";
      "philosophers.smv" ]

let test_memo_clamp () =
  let source = model_source "philosophers.smv" in
  let extra = [ "EF (p0.st = eat & p2.st = eat)" ] in
  let fresh specs =
    fst (run_to_string ~specs ~opts:certify (compile source))
  in
  let cache = Cache.create ~capacity:2 in
  let key = warm_into cache source in
  ignore (request_on cache ~key ~opts:certify ());
  let memo_size () =
    match Cache.snapshot cache with
    | [ i ] -> (i.Cache.i_memo_sets, i.Cache.i_memo_layers)
    | l -> Alcotest.failf "expected one entry, got %d" (List.length l)
  in
  let sets, layers = memo_size () in
  Alcotest.(check bool) "the memo outlives the request" true
    (sets > 0 && layers > 0);
  Alcotest.(check int) "clamped" 1 (Cache.clamp_idle cache ~limit:64);
  Alcotest.(check (pair int int)) "the watchdog reclaimed the memo" (0, 0)
    (memo_size ());
  Alcotest.(check string) "a repeat prints what a fresh server prints"
    (fresh []) (request_on cache ~key ~opts:certify ());
  Alcotest.(check string) "so does a new spec" (fresh extra)
    (request_on cache ~key ~specs:extra ~opts:certify ())

(* A memo hit charges no step, so a step-budgeted request on a warm
   entry must start from an empty memo to print what a one-shot run
   prints. *)
let test_memo_step_budget () =
  let source = model_source "mutex.smv" in
  let budgeted = { Engine.default with step_limit = Some 1 } in
  let one_shot = fst (run_to_string ~opts:budgeted (compile source)) in
  let cache = Cache.create ~capacity:2 in
  let key = warm_into cache source in
  ignore (request_on cache ~key ());
  Alcotest.(check string) "budgeted after unbudgeted prints the one-shot run"
    one_shot
    (request_on cache ~key ~opts:budgeted ())

let test_memo_breach_clears () =
  let compiled = compile (model_source "mutex.smv") in
  let m = compiled.Smv.Compile.model in
  let memo = Counterex.Explain.memo m in
  let check opts spec =
    let buf = Buffer.create 256 in
    ignore
      (Engine.check_one (Format.formatter_of_buffer buf) m ~opts
         ~cancel:(Atomic.make false) ~clusters:compiled.Smv.Compile.clusters
         ~memo spec)
  in
  (match compiled.Smv.Compile.specs with
  | first :: second :: _ ->
    check Engine.default first;
    Alcotest.(check bool) "the first spec filled the run's memo" true
      (fst (Counterex.Explain.size memo) > 0);
    (* Attempt 2 is the gc-retry rung. *)
    check { Engine.default with step_limit = Some 1; retries = 2 } second
  | _ -> Alcotest.fail "expected two SPECs");
  Alcotest.(check (pair int int)) "the breach cleared it before the gc" (0, 0)
    (Counterex.Explain.size memo)

(* Collection at release keeps the memo: its keys are rooted, so a
   warm repeat after a gc still re-runs no fixpoint and prints the
   same bytes. *)
let collect_now cache key =
  let e, _ = Cache.acquire cache ~key in
  Fun.protect ~finally:(fun () -> Cache.release cache e) @@ fun () ->
  Cache.collect cache e

let memo_size cache key =
  match List.find_opt (fun i -> i.Cache.i_key = key) (Cache.snapshot cache) with
  | Some i -> (i.Cache.i_memo_sets, i.Cache.i_memo_layers)
  | None -> Alcotest.fail "the entry is not pooled"

let test_memo_survives_collection () =
  List.iter
    (fun (name, extra) ->
      let cache = Cache.create ~capacity:2 in
      let key = warm_into cache (model_source name) in
      let request () = request_on cache ~key ~specs:[ extra ] () in
      let cold = request () in
      let size = memo_size cache key in
      Alcotest.(check bool) (name ^ ": the gc frees nodes") true
        (collect_now cache key > 0);
      Alcotest.(check (pair int int)) (name ^ ": the memo is kept") size
        (memo_size cache key);
      Ctl.Check.reset_fixpoint_stats ();
      Alcotest.(check string) (name ^ ": warm output byte-identical") cold
        (request ());
      Alcotest.(check int) (name ^ ": 0 EU iterations after the gc") 0
        (Ctl.Check.fixpoint_stats ()).Ctl.Check.eu_iterations;
      (* The extra spec's [Pred] set lives only in its memo key: had
         the gc swept it, its recompiled set would key a new entry. *)
      Alcotest.(check (pair int int)) (name ^ ": and every set is a hit") size
        (memo_size cache key))
    (* comparisons: their sets are built for the spec, unlike a boolean
       variable's label *)
    [ ("counter12.smv", "AG (b3 = b0 -> EF !b0)");
      ("philosophers.smv", "AG !(p1.st = hungry & p2.st = left)") ]

(* The daemon's request shape, [Cache.after_request] before release:
   whether it collected, against the trigger computed from the live
   nodes and [kept] it found. *)
let served cache source =
  let key = Cache.digest ~source in
  let e, _ = Cache.acquire cache ~key in
  Fun.protect ~finally:(fun () -> Cache.release cache e) @@ fun () ->
  if e.Cache.compiled = None then e.Cache.compiled <- Some (compile source);
  ignore (run_to_string ~memo:(Cache.memo e) (Option.get e.Cache.compiled));
  let live = Cache.live_nodes cache and kept = e.Cache.kept in
  let before = fst (Cache.collections cache) in
  Cache.after_request cache e;
  ( fst (Cache.collections cache) > before,
    e.Cache.uses > 1 && live >= 4096 && live > 2 * kept )

let test_after_request_collects () =
  List.iter
    (fun (name, expected) ->
      let cache = Cache.create ~capacity:2 in
      let outcomes =
        List.init 5 (fun i ->
            let collected, due = served cache (model_source name) in
            Alcotest.(check bool)
              (Printf.sprintf "%s request %d: collected iff due" name (i + 1))
              due collected;
            collected)
      in
      Alcotest.(check (list bool)) (name ^ ": collections") expected outcomes)
    [ (* once-used at its first request; its first repeat finds the
         first request's garbage and is collected, and later repeats,
         whose 4,096-state witness descent builds no node, no longer
         grow the manager past twice what that collection kept *)
      ("counter12.smv", [ false; true; false; false; false ]);
      (* never 4,096 live nodes *)
      ("mutex.smv", [ false; false; false; false; false ]) ]

(* Random request sequences on one pooled entry, with a collection
   forced after every request, print what a fresh compile prints.  The
   extra formulas come in pairs of one shape, so a key whose handle a
   gc recycled would likely meet a formula of its shape; whether the
   keys survive at all is what [test_memo_survives_collection] pins. *)
let prop_collected_entry_prints_fresh =
  let models =
    [|
      ( "mutex.smv",
        [ "EF (p = crit & q = try)"; "EF (p = try & q = crit)";
          "AG (p = try -> AF q = crit)"; "AG (q = try -> AF p = crit)" ] );
      ( "philosophers.smv",
        [ "EF (p0.eating & p2.st = hungry)"; "EF (p1.eating & p0.st = hungry)";
          "AG (p0.st = hungry -> AF p0.eating)";
          "AG (p1.st = hungry -> AF p1.eating)" ] );
      ( "cache.smv",
        [ "EF (c0 = owned & op = rd1)"; "EF (c1 = owned & op = wr0)";
          "AG (c0 = shared -> AF c1 = owned)";
          "AG (c1 = shared -> AF c0 = owned)" ] );
    |]
  in
  let fresh = Hashtbl.create 64 in
  let gen =
    QCheck2.Gen.(
      pair
        (int_bound (Array.length models - 1))
        (list_size (int_range 1 5) (pair (list_repeat 4 bool) bool)))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:40
       ~name:"cache: a collected entry prints what a fresh compile prints" gen
       (fun (i, requests) ->
         let name, formulas = models.(i) in
         let source = model_source name in
         let cache = Cache.create ~capacity:1 in
         let key = warm_into cache source in
         List.iter
           (fun (pick, with_certify) ->
             let specs =
               List.filteri (fun j _ -> List.nth pick j) formulas
             in
             let opts = if with_certify then certify else Engine.default in
             let warm = request_on cache ~key ~specs ~opts () in
             ignore (collect_now cache key);
             let expected =
               match Hashtbl.find_opt fresh (i, specs, with_certify) with
               | Some out -> out
               | None ->
                 let out = fst (run_to_string ~specs ~opts (compile source)) in
                 Hashtbl.replace fresh (i, specs, with_certify) out;
                 out
             in
             if warm <> expected then
               QCheck2.Test.fail_reportf "%s, specs [%s]:\nwarm:\n%s\nfresh:\n%s"
                 name (String.concat "; " specs) warm expected)
           requests;
         true))

(* Deciding every spec through one run-wide memo prints exactly what
   deciding each through its own fresh memo printed, traces, their
   certificates and every note about a trace that could not be built
   included. *)
let prop_run_memo_per_spec =
  let gen =
    QCheck2.Gen.(
      triple
        (int_bound 2 >>= fun nfair -> Models.random_model_gen ~nfair ())
        (list_size (int_range 1 5) Models.formula_gen)
        bool)
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150
       ~name:"engine: a run-wide memo prints what per-spec memos print" gen
       (fun (rm, formulas, fair) ->
         let specs = List.map (fun f -> (Ctl.to_string f, f)) formulas in
         let m = rm.Models.sym in
         let compiled =
           { Smv.Compile.model = m; specs; defines = []; clusters = [] }
         in
         let opts = { Engine.default with certify = true; fair } in
         let buf = Buffer.create 1024 in
         let ppf = Format.formatter_of_buffer buf in
         let per_spec =
           List.map
             (fun spec ->
               (Engine.check_one ppf m ~opts ~cancel:(Atomic.make false)
                  ~clusters:[] spec)
                 .Engine.verdict)
             specs
         in
         Format.pp_print_flush ppf ();
         let out, verdicts = run_to_string ~opts compiled in
         if out <> Buffer.contents buf || verdicts <> per_spec then
           QCheck2.Test.fail_reportf "run-wide:\n%s\nper spec:\n%s" out
             (Buffer.contents buf);
         true))

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
    Alcotest.test_case "cache: LRU eviction spares busy entries" `Quick
      test_cache_eviction;
    Alcotest.test_case "engine: check_one output" `Quick
      test_engine_check_one;
    Alcotest.test_case "engine: probe fault is a function of the spec" `Quick
      test_engine_fault_per_spec;
    Alcotest.test_case "engine: the ladder keeps the variable order" `Quick
      test_engine_ladder_keeps_order;
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
    Alcotest.test_case "cache: one-off keys spare reused entries" `Quick
      test_cache_one_offs_spare_reused;
    Alcotest.test_case "cache: a newly hot key is admitted" `Quick
      test_cache_newly_hot_admitted;
    Alcotest.test_case "cache: a restored entry survives one-off keys" `Quick
      test_cache_restored_entry_survives;
    Alcotest.test_case "cache: the watchdog evicts in victim order" `Quick
      test_cache_watchdog_victim_order;
    Alcotest.test_case "cache: a costly entry outlives a cheaper one" `Quick
      test_cache_costly_outlives_cheaper;
    Alcotest.test_case "cache: equal costs evict the least recently released"
      `Quick test_cache_equal_costs_lru;
    Alcotest.test_case "cache: a costly entry no longer asked for ages out"
      `Quick test_cache_costly_ages_out;
    Alcotest.test_case "cache: a restored entry is ordered by its cost" `Quick
      test_cache_restored_entry_cost;
    Alcotest.test_case "memo: a warm repeat runs no EU fixpoint" `Quick
      test_memo_warm_repeat;
    Alcotest.test_case "memo: clamp_idle reclaims it, output unchanged"
      `Quick test_memo_clamp;
    Alcotest.test_case "memo: a step budget starts from an empty memo" `Quick
      test_memo_step_budget;
    Alcotest.test_case "memo: a breach clears it before the gc" `Quick
      test_memo_breach_clears;
    prop_run_memo_per_spec;
    Alcotest.test_case "memo: a collection keeps it, output unchanged" `Quick
      test_memo_survives_collection;
    Alcotest.test_case "cache: after_request collects a grown manager" `Quick
      test_after_request_collects;
    prop_collected_entry_prints_fresh;
  ]
