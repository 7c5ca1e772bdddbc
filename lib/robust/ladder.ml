type strategy =
  | Direct
  | Gc_retry
  | Degraded
  | Explicit_state

type failure =
  | Breach of Bdd.Limits.info
  | Oom
  | Crashed of string

type attempt = {
  index : int;
  strategy : strategy;
  failure : failure option;
  live_nodes : int;
  duration : float;
}

let strategy_name = function
  | Direct -> "direct"
  | Gc_retry -> "gc-retry"
  | Degraded -> "degraded"
  | Explicit_state -> "explicit-state"

let failure_name = function
  | Breach { Bdd.Limits.breach = Bdd.Limits.Deadline _; _ } -> "deadline"
  | Breach { Bdd.Limits.breach = Bdd.Limits.Node_budget _; _ } -> "node-budget"
  | Breach { Bdd.Limits.breach = Bdd.Limits.Step_budget _; _ } -> "step-budget"
  | Breach { Bdd.Limits.breach = Bdd.Limits.Interrupted; _ } -> "interrupted"
  | Oom -> "out-of-memory"
  | Crashed _ -> "internal-error"

let pp_attempt ppf a =
  Format.fprintf ppf "attempt %d [%s]: %s after %.2fs (%d nodes)" a.index
    (strategy_name a.strategy)
    (match a.failure with None -> "ok" | Some f -> failure_name f)
    a.duration a.live_nodes

let classify = function
  | Bdd.Limits.Exhausted info -> (
    match info.Bdd.Limits.breach with
    | Bdd.Limits.Interrupted -> None
    | Bdd.Limits.Deadline _ | Bdd.Limits.Node_budget _
    | Bdd.Limits.Step_budget _ ->
      Some (Breach info))
  | Out_of_memory -> Some Oom
  | _ -> None

(* Which rung handles attempt [index]?  Failures climb gc-retry →
   degraded, with the explicit bridge reserved for the final attempt
   (it abandons the symbolic representation entirely, so it is the
   rung of last resort). *)
let pick_strategy ~index ~is_last ~fits_explicit =
  if index = 1 then Direct
  else if is_last && fits_explicit () then Explicit_state
  else if index = 2 then Gc_retry
  else Degraded

let run ~retries ~cancelled ~fits_explicit ~live_nodes attempt_fn =
  if retries < 0 then invalid_arg "Ladder.run: negative retries";
  let max_attempts = retries + 1 in
  let log = ref [] in
  let record index strategy failure t0 =
    {
      index;
      strategy;
      failure;
      live_nodes = live_nodes ();
      duration = Bdd.now_monotonic () -. t0;
    }
  in
  let rec go index prev_failure =
    match prev_failure with
    | Some f when cancelled () || index > max_attempts ->
      Error (f, List.rev !log)
    | _ -> (
      let strategy =
        pick_strategy ~index ~is_last:(index >= max_attempts) ~fits_explicit
      in
      let t0 = Bdd.now_monotonic () in
      match attempt_fn ~attempt:index strategy with
      | v ->
        log := record index strategy None t0 :: !log;
        Ok (v, List.rev !log)
      | exception e -> (
        match classify e with
        | None ->
          (* SIGINT ([Interrupted] breaches) and programming errors:
             neither is retriable, so the ladder steps out of the way. *)
          raise e
        | Some failure ->
          log := record index strategy (Some failure) t0 :: !log;
          go (index + 1) (Some failure)))
  in
  go 1 None
