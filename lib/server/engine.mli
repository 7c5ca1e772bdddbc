(** The checking engine shared by the one-shot CLI and the check
    server: one options record ({!options}, with one {!default}, one
    {!validate} and one [SITE:COUNT] parser), one per-specification
    checker ({!check_one}) and one driver ({!run}) that takes a
    compiled model to a list of reports.

    Both front ends call {!run}, so a server reply's [output] field and
    a one-shot run's stdout are the same bytes by construction, not by
    parallel maintenance of two drivers.  What stays front-end-specific
    is only what surrounds it: the CLI loads the file and prints the
    [--stats] model line, [--simulate] and the run-stats footer; the
    server looks the model up in its warm pool, warms the reach memo,
    diffs the manager stats and builds the reply.

    Cancellation is an explicit atomic argument rather than a process
    global, so every server request carries its own flag and
    cancelling one request cannot abort another.  A spec's embedded
    [Pred] state sets are rooted for the duration of its check, so a
    ladder-triggered [Bdd.gc] between attempts cannot sweep them. *)

(** Per-spec verdicts; [Undetermined] covers resource breaches and
    (without [debug]) unexpected exceptions, so one bad specification
    never takes down the rest of the run. *)
type verdict = Holds | Fails | Undetermined of string

(** What {!check_one} hands back: the verdict plus whether a produced
    trace failed certification (which forces exit code 3). *)
type report = { verdict : verdict; cert_failed : bool }

(** A parsed [--inject SITE:COUNT]. *)
type inject =
  | Fault of Bdd.Fault.site * int
      (** fail the COUNT-th visit to a BDD fault site, armed afresh
          for every specification *)
  | Worker_crash of int
      (** kill the worker domain that picks up the COUNT-th task of a
          [--jobs] fan-out *)
  | Child_crash of int
      (** [--serve] only: SIGKILL the server after its COUNT-th check
          reply (supervision testing) *)

(** The check options: every flag that shapes one run's checks, shared
    by the one-shot CLI's flags and the server's request ["options"].
    Cancellation and debug mode are arguments of {!run} instead — the
    CLI has one process-wide cancel flag, the server one per
    request. *)
type options = {
  fair : bool;          (** honour FAIRNESS constraints *)
  traces : bool;        (** print witness / counterexample traces *)
  stats : bool;         (** print per-spec attempt logs on retries *)
  certify : bool;       (** re-validate every emitted trace *)
  partitioned : bool;   (** compile a partitioned transition relation *)
  retries : int;
  timeout : float option;
  node_limit : int option;
  step_limit : int option;
  inject : inject option;
  reorder : [ `None | `Static ];
      (** [`Static]: the front end compiles with the
          dependency-proximity variable order ([Smv.Compile.compile]'s
          [~static_order]) instead of declaration order; neither mode
          sifts *)
}

val default : options
(** The flagless CLI, and equally an option-less check request. *)

val parse_inject : ?seed:int -> string -> (inject, string) result
(** Parse [SITE:COUNT]: SITE is a {!Bdd.Fault} site name, [worker] or
    [child-crash]; COUNT a positive integer or [rand] (drawn from
    [seed], default 0, so chaos runs are reproducible). *)

val validate : jobs:int -> options -> (unit, string) result
(** The range checks, with the CLI's flag names in the messages; a
    [Worker_crash] needs [jobs >= 2], a [Child_crash] is a server
    flag and always rejected here. *)

val compile :
  source:string ->
  (unit -> Smv.Compile.compiled) ->
  (Smv.Compile.compiled, string) result
(** Run a model loader, turning front-end errors into one-line
    messages prefixed by [source] (the file path, or ["model"] for a
    request), and root the compiled clusters on the model's manager
    for its whole life. *)

val mk_limits : options -> cancel:bool Atomic.t -> Bdd.Limits.t
(** A fresh budget bundle carrying [options]' budgets, cancellable
    through [cancel]. *)

val exit_code :
  interrupted:bool -> report list -> int
(** Aggregate per-spec reports into the CLI exit-code contract:
    3 when any trace failed certification, 2 when interrupted or any
    verdict is undetermined, 1 when any specification is false,
    else 0. *)

val check_one :
  Format.formatter ->
  Kripke.t ->
  opts:options ->
  cancel:bool Atomic.t ->
  ?debug:bool ->
  clusters:(unit -> Bdd.t list) ->
  ?inject:Bdd.Fault.site * int ->
  ?prior:Robust.Ladder.attempt list ->
  string * Ctl.t ->
  report
(** Check one specification.  Budgets are per-spec so one hard
    specification cannot starve the rest; the bundle is also the
    cancellation point.  With [retries = 0] this reduces to exactly
    one [Direct] attempt whose behaviour (prints included) matches
    the pre-recovery checker byte for byte.  All output goes to the
    formatter.  [cancel] stops the check at its next poll point;
    [debug] (default false) lets unexpected exceptions escape.

    [clusters] supplies the transition clusters for the degraded rung
    (a thunk: workers transfer them onto their own manager lazily);
    [inject] arms the manager's fault before the first attempt, and is
    always disarmed again on exit ([opts.inject] is {!run}'s business,
    not this function's); [prior] carries a crashed worker
    attempt so the local re-run resumes the ladder instead of
    restarting it. *)

(** What {!run} hands back. *)
type outcome = {
  verdicts : (string * report) list;
      (** spec name and report, in specification order; specs skipped
          after a cancellation are absent *)
  worker_stats : Bdd.stats list;
      (** per-worker manager counters of a [--jobs] fan-out *)
  exit_code : int;
}

val run :
  Format.formatter ->
  Smv.Compile.compiled ->
  opts:options ->
  specs:string list ->
  cancel:bool Atomic.t ->
  debug:bool ->
  jobs:int ->
  prepare:(unit -> 'a) ->
  ('a * outcome, string) result
(** The check driver of both front ends: everything between "model
    compiled" and "reports in hand".  In order:
    {ol
    {- [prepare ()], the caller's own step (the CLI's model statistics
       and simulation, the server's reach-memo warming);}
    {- the extra [specs] texts compile after the model's SPECs; the
       first that does not yields [Error "spec TEXT: why"];}
    {- the specs are checked in order, stopping early once [cancel]
       is set, with [opts.inject]'s fault armed for each — or, when
       [jobs > 1] and there are several specs, fanned out over worker
       domains ([Worker_crash] planted) and replayed in order, a
       crashed worker's spec re-checked here when [retries > 0].}}
    All check output goes to the formatter; [debug] lets unexpected
    exceptions escape; the exit code treats a set [cancel] as an
    interruption. *)
