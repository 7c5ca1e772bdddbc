(* Wire protocol: parse request frames, build reply frames.  All JSON
   shapes are documented in the interface. *)

let ( let* ) = Result.bind

type options = Engine.options

let default_options = Engine.default

type request =
  | Check of {
      id : string;
      model : string;
      specs : string list;
      options : options;
    }
  | Cancel of { id : string }
  | Ping
  | Status
  | Shutdown

type spec_verdict = {
  sv_name : string;
  sv_report : Engine.report;
}

(* ------------------------------------------------------------------ *)
(* Request parsing *)

let field_error name kind = Error (Printf.sprintf "%S must be %s" name kind)

let opt_field fields name decode kind =
  match List.assoc_opt name fields with
  | None | Some Json.Null -> Ok None
  | Some v -> (
    match decode v with
    | Some x -> Ok (Some x)
    | None -> field_error name kind)

let with_default default = Result.map (Option.value ~default)

let parse_reorder = function
  | "none" -> Ok `None
  | "static" -> Ok `Static
  | s ->
    Error (Printf.sprintf "\"reorder\": unknown mode %S (none or static)" s)

let parse_options json =
  let fields = Json.obj_or_empty json in
  let d = default_options in
  let bool_f name default =
    with_default default (opt_field fields name Json.to_bool "a boolean")
  in
  let int_f name default =
    with_default default (opt_field fields name Json.to_int "an integer")
  in
  let* fair = bool_f "fair" d.fair in
  let* traces = bool_f "traces" d.traces in
  let* stats = bool_f "stats" d.stats in
  let* certify = bool_f "certify" d.certify in
  let* partitioned = bool_f "partitioned" d.partitioned in
  let* retries = int_f "retries" d.retries in
  let* timeout = opt_field fields "timeout" Json.to_num "a number" in
  let* node_limit = opt_field fields "node_limit" Json.to_int "an integer" in
  let* step_limit = opt_field fields "step_limit" Json.to_int "an integer" in
  let* inject_s = opt_field fields "inject" Json.to_str "a string" in
  let* inject =
    match inject_s with
    | None -> Ok None
    | Some s -> Result.map Option.some (Engine.parse_inject s)
  in
  let* reorder_s = opt_field fields "reorder" Json.to_str "a string" in
  let* reorder =
    match reorder_s with None -> Ok d.reorder | Some s -> parse_reorder s
  in
  let options =
    {
      Engine.fair; traces; stats; certify; partitioned;
      retries; timeout; node_limit; step_limit; inject; reorder;
    }
  in
  (* The CLI's own validator: a request runs on one worker, so
     "worker:N" is refused exactly as on a sequential command line. *)
  let* () = Engine.validate ~jobs:1 options in
  Ok options

let parse_request payload =
  let* json =
    Result.map_error (fun e -> "bad frame: " ^ e) (Json.of_string payload)
  in
  let str_field name =
    match Option.bind (Json.member name json) Json.to_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "missing or non-string %S field" name)
  in
  let* op = str_field "op" in
  match op with
  | "ping" -> Ok Ping
  | "status" -> Ok Status
  | "shutdown" -> Ok Shutdown
  | "cancel" ->
    let* id = str_field "id" in
    Ok (Cancel { id })
  | "check" ->
    let* id = str_field "id" in
    let* model = str_field "model" in
    let* specs =
      match Json.member "specs" json with
      | None | Some Json.Null -> Ok []
      | Some v -> (
        match Json.to_list v with
        | None -> field_error "specs" "an array of strings"
        | Some items ->
          List.fold_left
            (fun acc item ->
              let* acc = acc in
              match Json.to_str item with
              | Some s -> Ok (s :: acc)
              | None -> field_error "specs" "an array of strings")
            (Ok []) items
          |> Result.map List.rev)
    in
    let* options = parse_options (Json.member "options" json) in
    Ok (Check { id; model; specs; options })
  | other -> Error (Printf.sprintf "unknown op %S" other)

(* ------------------------------------------------------------------ *)
(* Reply building *)

let verdict_fields (r : Engine.report) =
  let open Json in
  match r.Engine.verdict with
  | Engine.Holds -> [ ("verdict", Str "true") ]
  | Engine.Fails -> [ ("verdict", Str "false") ]
  | Engine.Undetermined reason ->
    [ ("verdict", Str "undetermined"); ("reason", Str reason) ]

let op_stats_json (o : Bdd.op_stats) =
  let open Json in
  Obj
    [
      ("calls", Num (float_of_int o.Bdd.calls));
      ("hits", Num (float_of_int o.Bdd.hits));
      ("misses", Num (float_of_int o.Bdd.misses));
    ]

let stats_json (s : Bdd.stats) =
  let open Json in
  Obj
    [
      ("ite", op_stats_json s.Bdd.ite);
      ("exists", op_stats_json s.Bdd.exists);
      ("forall", op_stats_json s.Bdd.forall);
      ("relprod", op_stats_json s.Bdd.relprod);
      ("constrain", op_stats_json s.Bdd.constrain);
      ("live_nodes", Num (float_of_int s.Bdd.live_nodes));
      ("peak_nodes", Num (float_of_int s.Bdd.peak_nodes));
      ("total_nodes", Num (float_of_int s.Bdd.total_nodes));
      ("cache_evictions", Num (float_of_int s.Bdd.cache_evictions));
      ("gc_runs", Num (float_of_int s.Bdd.gc_runs));
      ("gc_collected", Num (float_of_int s.Bdd.gc_collected));
      ("reorders", Num (float_of_int s.Bdd.reorders));
      ("reorder_ms", Num s.Bdd.reorder_ms);
      ("reorder_saved", Num (float_of_int s.Bdd.reorder_saved));
    ]

let check_reply ~id ~exit_code ~verdicts ~output ~warm ~reach_reused
    ?reach_states ?stats ?faults_fired ~time_ms () =
  let open Json in
  let verdicts_json =
    Arr
      (List.map
         (fun sv ->
           Obj
             (( "spec", Str sv.sv_name )
              :: verdict_fields sv.sv_report
             @ [ ("cert_failed", Bool sv.sv_report.Engine.cert_failed) ]))
         verdicts)
  in
  let optional =
    (match reach_states with
    | Some n -> [ ("reach_states", Num n) ]
    | None -> [])
    @ (match stats with Some s -> [ ("stats", stats_json s) ] | None -> [])
    @
    match faults_fired with
    | Some n when n > 0 -> [ ("faults_fired", Num (float_of_int n)) ]
    | _ -> []
  in
  to_string
    (Obj
       ([
          ("id", Str id);
          ("status", Str "ok");
          ("exit_code", Num (float_of_int exit_code));
          ("verdicts", verdicts_json);
          ("output", Str output);
          ("warm", Bool warm);
          ("reach_reused", Bool reach_reused);
        ]
       @ optional
       @ [ ("time_ms", Num time_ms) ]))

let overloaded_reply ~id ~reason ~queue_depth ~retry_after_ms =
  let open Json in
  to_string
    (Obj
       [
         ("id", Str id);
         ("status", Str "overloaded");
         ("reason", Str reason);
         ("queue_depth", Num (float_of_int queue_depth));
         ("retry_after_ms", Num retry_after_ms);
       ])

type model_status = {
  ms_key : string;
  ms_busy : int;
  ms_uses : int;
  ms_warm : bool;
  ms_live_nodes : int;
  ms_clamped : bool;
}

type server_status = {
  ss_uptime_s : float;
  ss_workers : int;
  ss_queue_depth : int;
  ss_max_pending : int option;
  ss_inflight : int;
  ss_shed_queue : int;
  ss_shed_inflight : int;
  ss_shed_cold : int;
  ss_watchdog_evictions : int;
  ss_cache_clamps : int;
  ss_level_transitions : int;
  ss_pressure_level : int;
  ss_mem_live_nodes : int;
  ss_mem_high_water : int option;
  ss_respawns : int;
  ss_avg_check_ms : float option;
  ss_faults_fired : int;
  ss_snapshots : int;
  ss_restores : int;
  ss_quarantines : int;
  ss_restarts : int;
  ss_checks : int;
  ss_cache_capacity : int;
  ss_models : model_status list;
}

let status_reply s =
  let open Json in
  let opt_int = function
    | Some n -> Num (float_of_int n)
    | None -> Null
  in
  let models =
    Arr
      (List.map
         (fun m ->
           Obj
             [
               ("key", Str m.ms_key);
               ("busy", Num (float_of_int m.ms_busy));
               ("uses", Num (float_of_int m.ms_uses));
               ("warm", Bool m.ms_warm);
               ("live_nodes", Num (float_of_int m.ms_live_nodes));
               ("clamped", Bool m.ms_clamped);
             ])
         s.ss_models)
  in
  let warm =
    List.length (List.filter (fun m -> m.ms_warm) s.ss_models)
  in
  to_string
    (Obj
       [
         ("status", Str "ok");
         ("op", Str "status");
         ("uptime_s", Num s.ss_uptime_s);
         ("workers", Num (float_of_int s.ss_workers));
         ("queue_depth", Num (float_of_int s.ss_queue_depth));
         ("max_pending", opt_int s.ss_max_pending);
         ("inflight", Num (float_of_int s.ss_inflight));
         ( "counters",
           Obj
             [
               ("shed_queue", Num (float_of_int s.ss_shed_queue));
               ("shed_inflight", Num (float_of_int s.ss_shed_inflight));
               ("shed_cold", Num (float_of_int s.ss_shed_cold));
               ( "watchdog_evictions",
                 Num (float_of_int s.ss_watchdog_evictions) );
               ("cache_clamps", Num (float_of_int s.ss_cache_clamps));
               ( "level_transitions",
                 Num (float_of_int s.ss_level_transitions) );
               ("snapshots", Num (float_of_int s.ss_snapshots));
               ("restores", Num (float_of_int s.ss_restores));
               ("quarantines", Num (float_of_int s.ss_quarantines));
               ("restarts", Num (float_of_int s.ss_restarts));
               ("checks", Num (float_of_int s.ss_checks));
             ] );
         ("pressure_level", Num (float_of_int s.ss_pressure_level));
         ("mem_live_nodes", Num (float_of_int s.ss_mem_live_nodes));
         ("mem_high_water", opt_int s.ss_mem_high_water);
         ("pool_respawns", Num (float_of_int s.ss_respawns));
         ( "avg_check_ms",
           match s.ss_avg_check_ms with Some x -> Num x | None -> Null );
         ("faults_fired", Num (float_of_int s.ss_faults_fired));
         ( "cache",
           Obj
             [
               ("capacity", Num (float_of_int s.ss_cache_capacity));
               ("entries", Num (float_of_int (List.length s.ss_models)));
               ("warm", Num (float_of_int warm));
               ("models", models);
             ] );
       ])

let error_reply ?id msg =
  let open Json in
  to_string
    (Obj
       [
         ("id", match id with Some s -> Str s | None -> Null);
         ("status", Str "error");
         ("error", Str msg);
       ])

let pong_reply =
  Json.to_string
    (Json.Obj [ ("status", Json.Str "ok"); ("op", Json.Str "pong") ])

let cancel_reply ~id ~found =
  let open Json in
  to_string
    (Obj
       [
         ("id", Str id);
         ("status", Str "ok");
         ("op", Str "cancel");
         ("found", Bool found);
       ])

let shutdown_reply =
  Json.to_string
    (Json.Obj [ ("status", Json.Str "ok"); ("op", Json.Str "shutdown") ])
