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
  retries : int;
  timeout : float option;
  node_limit : int option;
  step_limit : int option;
  inject : inject option;
}

val default : options
(** The flagless CLI, and equally an option-less check request. *)

val parse_inject : ?seed:int -> string -> (inject, string) result
(** Parse [SITE:COUNT]: SITE is a {!Bdd.Fault} site name or
    [child-crash]; COUNT a positive integer or [rand] (drawn from
    [seed], default 0, so chaos runs are reproducible). *)

val validate : options -> (unit, string) result
(** The range checks, with the CLI's flag names in the messages; a
    [Child_crash] is a server flag and always rejected here. *)

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
  clusters:Bdd.t list ->
  ?inject:Bdd.Fault.site * int ->
  ?explicit:(unit -> Robust.Fallback.t) ->
  ?memo:Counterex.Explain.memo ->
  string * Ctl.t ->
  report
(** Check one specification.  Budgets are per-spec so one hard
    specification cannot starve the rest; the bundle is also the
    cancellation point.  With [retries = 0] this reduces to exactly
    one [Direct] attempt whose behaviour (prints included) matches
    the pre-recovery checker byte for byte.  All output goes to the
    formatter.  [cancel] stops the check at its next poll point;
    [debug] (default false) lets unexpected exceptions escape.

    [clusters] are the transition clusters for the degraded rung;
    [explicit] builds the explicit rung's graph ({!run} shares one);
    [inject] arms the manager's fault before the first attempt (after
    the model's fair states and with empty op caches), and is always
    disarmed again on exit ([opts.inject] is {!run}'s business).

    [memo] is the run's fixpoint memo; it must be on [m].
    Under fair semantics the first attempt decides, and its trace
    explains, through it, reading what earlier specifications left and
    adding its own sets; a spec with a fault armed, and every later
    attempt, runs on a fresh memo instead.  Any gc the ladder runs
    (and the one after a final breach) clears [memo] first.  Without
    [memo] every attempt runs on a fresh memo. *)

(** What {!run} hands back. *)
type outcome = {
  verdicts : (string * report) list;
      (** spec name and report, in specification order; specs skipped
          after a cancellation are absent *)
  exit_code : int;
}

val run :
  ?memo:Counterex.Explain.memo ->
  Format.formatter ->
  Smv.Compile.compiled ->
  opts:options ->
  specs:string list ->
  cancel:bool Atomic.t ->
  debug:bool ->
  prepare:(unit -> 'a) ->
  ('a * outcome, string) result
(** The check driver of both front ends: everything between "model
    compiled" and "reports in hand".  In order:
    {ol
    {- [prepare ()], the caller's own step (the CLI's model statistics
       and simulation, the server's reach-memo warming);}
    {- the extra [specs] texts compile after the model's SPECs; the
       first that does not yields [Error "spec TEXT: why"];}
    {- the specs are checked in order on the calling domain, stopping
       early once [cancel] is set, with [opts.inject]'s fault armed
       for each, the explicit graph built at most once, and one
       fixpoint memo ({!check_one}'s [memo]) shared by every spec: a
       later spec re-runs none of the fixpoints an earlier one left.}}
    [memo] is that memo when the caller keeps one for the model's
    life (the server's pool entry, so a warm request reuses the
    fixpoints of the requests before it); without it the run opens
    its own.  A run under a step budget ([opts.step_limit]) first
    clears [memo] and the model's fair-states memo
    ({!Kripke.fair_memo}): a memo hit charges no step, so only empty
    memos make its output what a one-shot run prints.  All check output goes to the formatter; [debug] lets
    unexpected exceptions escape; the exit code treats a set [cancel]
    as an interruption. *)
