(** The recovery ladder: classify → remediate → retry.

    A breach or out-of-memory no longer ends a specification: the ladder
    re-runs it with escalating remediation until an attempt succeeds,
    the attempt budget ([--retries]) is spent, or the run is
    cancelled.  The ladder itself is policy only — {e what} each rung
    does (collect garbage, tighten caches, partition the relation,
    drop to explicit state) is the caller's attempt function; the
    ladder decides {e which} rung comes next and keeps the attempt
    log.

    Rung order:
    {ol
    {- [Direct] — the plain symbolic attempt (always attempt 1, so a
       run with [--retries 0] is byte-identical to one without a
       ladder);}
    {- [Gc_retry] — same algorithm after a full [Bdd.gc] and op-cache
       purge, with backed-off budgets;}
    {- [Degraded] — tightened cache limit plus a partitioned
       transition relation (every later attempt);}
    {- [Explicit_state] — the final attempt, taken only when the state
       space fits the explicit bridge.}}

    No rung changes the variable order: a manager keeps the order the
    compiler installed for its whole life, so a laddered request on a
    pooled model leaves every later request's node counts alone. *)

type strategy =
  | Direct          (** plain symbolic attempt *)
  | Gc_retry        (** after [Bdd.gc] + op-cache purge *)
  | Degraded        (** tightened cache limit + partitioned relation *)
  | Explicit_state  (** explicit-state fallback via the bridge *)

type failure =
  | Breach of Bdd.Limits.info  (** a budget tripped (never [Interrupted]) *)
  | Oom                        (** [Out_of_memory] escaped the attempt *)
  | Crashed of string
      (** an unexpected exception ended the check: the caller's tag
          for what {!run} re-raises, never returned by it *)

type attempt = {
  index : int;                (** 1-based *)
  strategy : strategy;
  failure : failure option;   (** [None] means the attempt succeeded *)
  live_nodes : int;           (** manager size when the attempt ended *)
  duration : float;           (** seconds *)
}

val strategy_name : strategy -> string
(** ["direct"] / ["gc-retry"] / ["degraded"] / ["explicit-state"]. *)

val failure_name : failure -> string
(** Short tag: ["deadline"], ["node-budget"], ["step-budget"],
    ["out-of-memory"], ["internal-error"] (for {!Crashed}). *)

val pp_attempt : Format.formatter -> attempt -> unit
(** One log line, e.g.
    ["attempt 2 [gc-retry]: step-budget after 0.41s (102 nodes)"]. *)

val classify : exn -> failure option
(** Is this exception a recoverable failure?  [Limits.Exhausted] with a
    [Deadline] / [Node_budget] / [Step_budget] breach and
    [Out_of_memory] are; an [Interrupted] breach is {e deliberately
    not} (SIGINT must short-circuit the ladder, not ride it), and any
    other exception is a programming error to surface, not retry. *)

val run :
  retries:int ->
  cancelled:(unit -> bool) ->
  fits_explicit:(unit -> bool) ->
  live_nodes:(unit -> int) ->
  (attempt:int -> strategy -> 'a) ->
  ('a * attempt list, failure * attempt list) result
(** [run ~retries ... attempt_fn] drives up to [retries + 1] attempts
    (numbered from 1), calling [attempt_fn ~attempt strategy] for
    each.  An attempt that returns yields [Ok (value, log)]; one that
    raises a {!classify}-recoverable exception is logged and retried
    on the next rung.  [Error (failure, log)] is the last failure once
    attempts are spent — or as soon as [cancelled ()] turns true,
    which is checked {e between} attempts so a SIGINT during attempt
    [k] (surfacing as a non-recoverable [Interrupted] breach inside
    it, re-raised here) or just after it never starts attempt [k+1].
    Unclassifiable exceptions propagate to the caller untouched.

    [fits_explicit] gates the [Explicit_state] rung (it is consulted
    only for the final attempt); [live_nodes] samples the manager size
    for the log. *)
