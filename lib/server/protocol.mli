(** The check-server wire protocol: JSON documents, one per frame.

    {2 Requests}

    Every request is an object with an ["op"] field:
    {ul
    {- [{"op":"check","id":ID,"model":SRC,"specs":[F,...],
        "options":{...}}] — compile the SMV source [SRC], check its
       SPEC declarations plus the extra CTL formulas [F...], reply
       with verdicts.  [id] is an arbitrary client-chosen string
       echoed in the reply; ["specs"] and ["options"] are optional.}
    {- [{"op":"cancel","id":ID}] — cancel the in-flight check with
       that id (sets its private cancellation flag; the check winds
       down at its next poll point and still sends its own reply,
       with UNDETERMINED verdicts for whatever was cut short).}
    {- [{"op":"ping"}] — liveness probe.}
    {- [{"op":"status"}] — health introspection: answered inline by
       the reader (never queued behind checks) with uptime, queue
       depth, in-flight count, shed/eviction/degradation counters,
       per-model cache occupancy, worker-pool state and fault
       counters.  The probe load balancers and CI poll.}
    {- [{"op":"shutdown"}] — stop accepting requests, drain, exit.}}

    Option fields (all optional; omitted ones take {!default_options},
    the very value the one-shot CLI's flag defaults read, so an
    option-less request behaves exactly like [smv_check MODEL]; bad
    values are refused by the CLI's own validator, with its messages):
    booleans [fair], [traces],
    [stats], [certify], [partitioned]; integers [retries],
    [node_limit], [step_limit]; number [timeout]; strings [inject]
    ("SITE:COUNT" as on the CLI, minus "worker" and "child-crash")
    and [reorder] ("none"/"static").  Unknown fields,
    including ones older clients may still send, are ignored; the
    retry backoff factor (2) is fixed.

    {2 Replies}

    One reply frame per request, always an object with ["id"] (echoed,
    or [null] when unparseable), ["status"] ("ok"/"error"/
    "overloaded").  A shed check is answered immediately with
    [{"id":ID,"status":"overloaded","reason":R,"queue_depth":N,
    "retry_after_ms":X}] where [R] is ["queue"] (pool pending queue at
    its bound), ["inflight"] (connection at its in-flight cap) or
    ["memory"] (watchdog refusing cold models) and [X] estimates when
    a retry would find room (rolling mean of recent check durations
    scaled by the queue ahead).  Check replies add ["exit_code"] (the one-shot CLI's exit code for the
    same run), ["verdicts"] (array of [{"spec","verdict","reason"?,
    "cert_failed"}]), ["output"] (the complete one-shot CLI text,
    byte-identical), ["warm"] (manager reused from the pool),
    ["reach_reused"] (memoised reachable set reused), ["time_ms"],
    and — when requested with [stats] — ["stats"] (this request's own
    BDD work: snapshot-diffed manager counters, so concurrent
    requests don't bleed into each other) and ["reach_states"]. *)

type options = Engine.options
(** The one check-options record, shared with the CLI's flags. *)

val default_options : options
(** [Engine.default]: an option-less request is a flagless
    [smv_check MODEL]. *)

type request =
  | Check of {
      id : string;
      model : string;
      specs : string list;  (** extra formulas, after the model's SPECs *)
      options : options;
    }
  | Cancel of { id : string }
  | Ping
  | Status
  | Shutdown

val parse_request : string -> (request, string) result
(** Decode one frame payload.  [Error] carries a human-readable
    message suitable for an error reply. *)

(** {2 Reply builders} — each returns the frame payload. *)

type spec_verdict = {
  sv_name : string;
  sv_report : Engine.report;
}

val check_reply :
  id:string ->
  exit_code:int ->
  verdicts:spec_verdict list ->
  output:string ->
  warm:bool ->
  reach_reused:bool ->
  ?reach_states:float ->
  ?stats:Bdd.stats ->
  ?faults_fired:int ->
  time_ms:float ->
  unit ->
  string

val error_reply : ?id:string -> string -> string
val pong_reply : string
val cancel_reply : id:string -> found:bool -> string
val shutdown_reply : string

val overloaded_reply :
  id:string ->
  reason:string ->
  queue_depth:int ->
  retry_after_ms:float ->
  string
(** The shed reply for a check refused at admission; [reason] is a
    {!Overload.reason_string}. *)

(** One pooled model's row in the status reply. *)
type model_status = {
  ms_key : string;
  ms_busy : int;
  ms_uses : int;
  ms_warm : bool;
  ms_live_nodes : int;
  ms_clamped : bool;
}

(** Everything the ["status"] op reports; the daemon assembles it from
    the pool, the cache and the {!Overload} counters. *)
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
  ss_checks : int;         (** checks replied since startup *)
  ss_cache_capacity : int;
  ss_models : model_status list;
}

val status_reply : server_status -> string
(** Render the status reply frame; [null] for absent optional limits,
    and a ["cache"] object with ["entries"]/["warm"] totals plus one
    ["models"] row per pooled entry. *)
