(* The command-line flags that make up the check options
   ([Server.Engine.options]), kept apart from the program so a test can
   evaluate the flagless term.  Every default is read from
   [Server.Engine.default] — the value an option-less server request
   also gets — so the two front ends cannot drift apart.  [--inject]
   is parsed by the program itself: its [rand] count needs [--seed]. *)

module Engine = Server.Engine
open Cmdliner

let d = Engine.default

let no_fair_arg =
  Arg.(
    value & flag
    & info [ "no-fairness" ]
        ~doc:
          "Ignore FAIRNESS constraints when deciding specifications \
           (counterexample generation still respects them).")

let no_trace_arg =
  Arg.(
    value & flag
    & info [ "q"; "no-trace" ] ~doc:"Do not print counterexample traces.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print model statistics (state counts, deadlocks) before \
           checking, and BDD-manager counters (cache hits/misses, peak \
           node count) plus fixpoint iteration counts afterwards.  \
           With --retries, also the per-spec attempt log.")

let timeout_arg =
  Arg.(
    value
    & opt (some float) d.timeout
    & info [ "timeout" ] ~docv:"SECS"
        ~doc:
          "Wall-clock budget per specification; a spec that exceeds it \
           is reported UNDETERMINED and checking continues with the \
           next one.")

let node_limit_arg =
  Arg.(
    value
    & opt (some int) d.node_limit
    & info [ "node-limit" ] ~docv:"N"
        ~doc:
          "Live BDD-node budget per specification; exceeded budgets \
           report UNDETERMINED like --timeout.")

let step_limit_arg =
  Arg.(
    value
    & opt (some int) d.step_limit
    & info [ "step-limit" ] ~docv:"N"
        ~doc:
          "Fixpoint-iteration / ring-descent step budget per \
           specification (deterministic, unlike --timeout).")

let retries_arg =
  Arg.(
    value & opt int d.retries
    & info [ "retries" ] ~docv:"N"
        ~doc:
          "Re-attempt a breached, out-of-memory or crashed \
           specification up to N times with escalating remediation: \
           garbage collection, a degraded (partitioned, tight-cache) \
           representation, then an \
           explicit-state fallback when the state space is small \
           enough.  Recovered verdicts are annotated and their traces \
           always certified.  Default 0: no recovery, behaviour \
           identical to earlier versions.")

let certify_arg =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:
          "Independently re-validate every emitted witness or \
           counterexample trace against path semantics (transition \
           membership, operand satisfaction, fairness hits on the \
           cycle).  A trace that fails certification withdraws its \
           verdict and the run exits 3.  Always on for recovered \
           (retried) specifications.")

(* A boolean flag only moves its field away from the default:
   --no-fairness and -q switch one off, the others switch one on. *)
let term =
  let make no_fair no_trace stats timeout node_limit step_limit retries
      certify =
    {
      Engine.fair = d.fair && not no_fair;
      traces = d.traces && not no_trace;
      stats = d.stats || stats;
      certify = d.certify || certify;
      retries;
      timeout;
      node_limit;
      step_limit;
      inject = d.inject;
    }
  in
  Term.(
    const make $ no_fair_arg $ no_trace_arg $ stats_arg $ timeout_arg
    $ node_limit_arg $ step_limit_arg $ retries_arg $ certify_arg)
