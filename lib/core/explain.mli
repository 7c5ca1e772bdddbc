(** Recursive counterexample / witness explanation for full CTL.

    This is the user-facing facility of Section 6: when a universally
    quantified specification fails, produce an execution trace that
    demonstrates the negated, existentially quantified formula — e.g.
    for [AG (r -> AF a)] a path from an initial state to a state where
    [r] holds, continued by a fair lasso on which [a] never holds (the
    arbiter counterexample of the case study).

    Explanation recurses through the existential structure: [EU]
    prefixes are extended by explaining the target formula at the
    reached state, [EX] steps are extended by explaining the operand,
    [EG] produces a fair lasso.  Conjunctions explain their first
    temporal conjunct (a single path cannot in general demonstrate two
    temporal facts at once — the classic limitation of linear
    counterexamples); disjunctions explain a disjunct that actually
    holds.  Negated temporal subformulas are treated as opaque state
    sets.  All path quantifiers range over fair paths. *)

exception Cannot_explain of string

(** What the recursion needs of a representation: ['set] is a state
    set, ['state] a single state.  [sat] evaluates under fair
    semantics; [holds_at] asks whether a state satisfies a formula
    (the symbolic instance answers an [EU] from its rings, extended
    only until they hold the state); [fair] intersects a set with the
    fair states; [ex], [eu] and [eg] are the witness primitives for a
    start state that satisfies the operator ([ex] and [eu] return the
    path from [start], [eg] a (prefix, cycle) lasso whose prefix may be
    empty when the cycle starts at [start]). *)
type ('set, 'state) ops = {
  sat : Ctl.t -> 'set;
  holds_at : Ctl.t -> 'state -> bool;
  fair : 'set -> 'set;
  ex : f:'set -> start:'state -> 'state list;
  eu : f:'set -> g:'set -> start:'state -> 'state list;
  eg : f:'set -> start:'state -> 'state list * 'state list;
}

val explain_with :
  ('set, 'state) ops -> Ctl.t -> start:'state -> 'state list * 'state list
(** The explanation recursion over any representation: the (prefix,
    cycle) of a path demonstrating the formula at [start] (raises
    {!Cannot_explain} when it does not hold there).  {!explain} is its
    symbolic instance; [Robust.Fallback] runs it over explicit graph
    indices. *)

(** {1 The fixpoint memo}

    The sets and the [EU] and fair-[EG] rings computed on one model,
    shared by every check that decides a specification on it and every
    trace that explains one (Section 6 builds a witness from the rings
    the verdict's fixpoints already computed).  A memo belongs to the
    model, not to one specification: a later specification, or a later
    request on a pooled model, reads the fixpoints an earlier one left
    and re-runs none of them. *)

type memo
(** Every formula's fair set asked for so far, the rings of every [EU]
    its queries met, the hull and rings ({!Ctl.Fair.eg_rings}) of every
    fair [EG] its traversals met, and every fair-[EG] lasso explained
    from such a hull (keyed by its operand and start state, so a repeat
    runs none of the lasso's closing sweeps), on one model.

    An [EU]'s rings may be a prefix [Q_0 .. Q_j] of
    {!Ctl.Check.eu_rings}'s sequence ({!Ctl.Check.sweep}): each query
    resumes the one sweep only as far as it needs.  Every set [sat]
    returns, nested or not, forces its fixpoint; {!holds} on an [EU]
    spec stops once the rings cover the initial states, on a spec
    whose negation is an [EU] once they meet them; a trace stops once
    they hold its start state (the least initial state, for a trace
    from the initial states) and descends only the layers below it.

    Its diagrams are rooted only while a function below runs, or by a
    caller rooting {!roots}: a [Bdd.gc] of the model's manager that
    roots {!roots} keeps the memo usable; any other gc must {!clear} a
    memo that will be used again first, or a recycled key would hit a
    stale entry. *)

val memo : Kripke.t -> memo
(** A fresh, empty memo on the model. *)

val clear : memo -> unit
(** Drop everything the memo holds; it stays on its model. *)

val size : memo -> int * int
(** [(sets, layers)]: the formula sets the memo holds and the ring
    layers of its [EU]s (converged or not) and fair [EG]s.  Two field
    reads, so a racy read from another domain is harmless. *)

val lasso_stats : memo -> Witness.stats list
(** The {!Witness.eg_stats} of every fair-[EG] lasso the memo holds:
    its rounds and the seconds each phase of its construction took. *)

val roots : memo -> Bdd.t list
(** Every diagram the memo holds, keys included: its values (the
    layers of unconverged rings among them), the [Pred] sets inside its
    formula keys and the operand sets that key its rings, hulls and
    lassos. *)

val holds : ?limits:Bdd.Limits.t -> memo -> Ctl.t -> bool
(** [Ctl.Fair.holds] through the memo: the same verdict from a prefix
    of the same fixpoints, in the same order and charging [limits]
    alike.  When [push_neg f] is [E[a U b]] the spec holds as soon as
    its rings cover the initial states; when [push_neg (Not f)] is an
    [EU] ([AG], [!EF], [!EU] specs) it fails as soon as a layer meets
    them; either sweep runs on to its fixpoint only when that never
    happens.  Each [EU] and each fair [EG] keeps its rings for a later
    {!witness} or {!counterexample} on the same memo, which resumes
    them. *)

val explain :
  ?limits:Bdd.Limits.t ->
  Kripke.t -> Ctl.t -> start:Kripke.state -> Kripke.Trace.t
(** [explain m f ~start] — a trace demonstrating [f] at [start]; the
    formula must hold there under fair semantics (raises
    {!Cannot_explain} otherwise).  The trace is finite when no temporal
    continuation is required (purely propositional facts, [EU] into a
    propositional target), and a lasso when an [EG] is involved.
    [limits] is threaded to every fixpoint and ring descent involved; a
    breach raises [Bdd.Limits.Exhausted].  Each fixpoint of one call
    runs once: the call memoises every subformula's set in a fresh
    {!memo}, and the witness primitives descend the rings and hulls of
    the fixpoints that computed them. *)

val witness :
  ?limits:Bdd.Limits.t ->
  ?engine:Ctl.Fair.engine ->
  ?memo:memo ->
  Kripke.t -> Ctl.t -> Kripke.Trace.t option
(** A trace from some initial state demonstrating the (existential)
    formula; [None] when no initial state satisfies it.  [memo], when
    given, must be on the same model (else [Invalid_argument]): the
    trace then re-runs none of the fixpoints already in it — after
    {!holds} on the same memo, none of the verdict's — and adds its
    own.  Without it the call uses a fresh memo of its own. *)

val counterexample :
  ?limits:Bdd.Limits.t ->
  ?engine:Ctl.Fair.engine ->
  ?memo:memo ->
  Kripke.t -> Ctl.t -> Kripke.Trace.t option
(** A trace from some initial state demonstrating the *negation* of the
    formula; [None] when the formula holds on every initial state
    (i.e. the specification is true and there is nothing to show).
    [memo] as for {!witness}.  [?engine] here and on {!witness} is
    ignored, kept only for [perfbench/probe.ml]. *)
