(** Explicit-state fallback — the ladder's last rung.

    When the symbolic attempt keeps blowing its budgets but the state
    space is small, the spec is re-checked on the explicit graph
    extracted by [Explicit.Bridge.of_kripke]: the EMC-style worklist /
    SCC algorithms ([Explicit.Ectl]) need memory linear in the state
    count, not in diagram shape, so a formula whose fixpoints explode
    symbolically can still be decided.  Symbolic [Ctl.Pred] leaves are
    resolved through the bridge's mask function, so the very same
    compiled formula is checked — no re-elaboration against a second
    frontend.

    Traces come from [Explicit.Ewitness] (BFS paths, SCC fair cycles)
    mapped back through the bridge's state array into an ordinary
    [Kripke.Trace.t] over the original model — so the standard
    validator certifies them exactly like symbolic ones.  The
    explanation recursion is [Counterex.Explain.explain_with] itself
    (fair path semantics, first temporal conjunct, opaque negations),
    run over graph indices. *)

type t
(** A bridged model: the explicit graph, the concrete state of each
    node, and the symbolic-set → mask function. *)

val default_threshold : int
(** 65536 — the bridge's own default bound. *)

val fits : ?threshold:int -> Kripke.t -> bool
(** Does the model's state space fit the explicit bridge?  Decided on
    [count_states] of the model's [space] — an over-approximation of
    the reachable set, so a [true] answer is conservative, and the
    check costs one weighted BDD count, no fixpoint (the whole point
    is deciding this while the symbolic engine is drowning).  A state
    must also fit an int ({!Explicit.Bridge.of_kripke} indexes states by
    their packed bits). *)

val build : ?max_states:int -> Kripke.t -> t
(** Enumerate the model ([Explicit.Bridge.of_kripke]).  Raises
    [Explicit.Bridge.Too_large] past the bound; symbolic operations
    during enumeration still poll any attached [Bdd.Limits], so a
    deadline or SIGINT interrupts it. *)

val nstates : t -> int

type memo
(** One spec's fair satisfaction masks on one bridge: every subformula
    evaluated once, shared by the verdict and its trace. *)

val memo : t -> memo
(** A fresh, empty memo for the bridge. *)

val holds : ?memo:memo -> t -> fair:bool -> Ctl.t -> bool
(** The verdict: every initial state satisfies the formula, under fair
    semantics when [fair] (pass the same choice the symbolic path
    made, so verdicts are comparable).  A fair verdict fills [memo]
    (a private one when absent), so the trace built from the same memo
    re-evaluates nothing.  Every function taking [memo] raises
    [Invalid_argument] when it was made for another bridge. *)

val witness : ?memo:memo -> t -> Ctl.t -> Kripke.Trace.t option
(** A trace demonstrating the (existential) formula from some initial
    state; [None] when no initial state satisfies it under fair
    semantics.  Raises [Counterex.Explain.Cannot_explain] like the
    symbolic explainer. *)

val counterexample : ?memo:memo -> t -> Ctl.t -> Kripke.Trace.t option
(** A trace demonstrating the negation from some initial state;
    [None] when the formula holds on every initial state under fair
    semantics. *)
