(** Certified verdicts: independent re-validation of emitted traces.

    A printed witness or counterexample is an artifact; under
    [--certify] (and always after a recovered attempt) it is re-checked
    against path semantics by [Counterex.Validate] before the verdict
    ships: the whole trace is a real path of the model
    ([Validate.path_ok]), it starts in an initial state
    ([Validate.starts_at]), and it demonstrates the formula — the
    trace is split along the formula's existential structure exactly as
    [Counterex.Explain] builds it, applying the matching validator to
    each segment ([Validate.eg_witness] for [EG], [Validate.eu_witness]
    / [Validate.ex_witness] for [EU] / [EX] into propositional
    operands, recursion at the junction state for temporal
    continuations).  Satisfaction sets for operands are recomputed
    from scratch under fair semantics, so the certificate shares only
    the model with the generator that produced the trace.

    A certification failure means the checker was about to present a
    bogus trace — the caller downgrades the verdict and exits
    non-zero. *)

val witness :
  ?limits:Bdd.Limits.t ->
  ?engine:Ctl.Fair.engine ->
  Kripke.t ->
  Ctl.t ->
  Kripke.Trace.t ->
  (unit, string) result
(** [witness m f tr] — certify that [tr] demonstrates the formula [f]
    (as printed for a {e true existential} specification) from an
    initial state.  [Error msg] pinpoints the first violated
    requirement.  [limits] governs the satisfaction-set fixpoints (at
    minimum pass a cancellable bundle so SIGINT interrupts
    certification too).  [?engine] here and on {!counterexample} is
    ignored, kept only for [perfbench/probe.ml]. *)

val counterexample :
  ?limits:Bdd.Limits.t ->
  ?engine:Ctl.Fair.engine ->
  Kripke.t ->
  Ctl.t ->
  Kripke.Trace.t ->
  (unit, string) result
(** [counterexample m f tr] — certify that [tr] demonstrates the
    {e negation} of [f] (as printed for a failed specification) from an
    initial state. *)
