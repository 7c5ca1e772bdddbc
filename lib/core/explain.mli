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
    semantics; [fair] intersects a set with the fair states; [ex],
    [eu] and [eg] are the witness primitives for a start state that
    satisfies the operator ([ex] and [eu] return the path from
    [start], [eg] a (prefix, cycle) lasso whose prefix may be empty
    when the cycle starts at [start]). *)
type ('set, 'state) ops = {
  sat : Ctl.t -> 'set;
  mem : 'set -> 'state -> bool;
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

val explain :
  ?limits:Bdd.Limits.t ->
  Kripke.t -> Ctl.t -> start:Kripke.state -> Kripke.Trace.t
(** [explain m f ~start] — a trace demonstrating [f] at [start]; the
    formula must hold there under fair semantics (raises
    {!Cannot_explain} otherwise).  The trace is finite when no temporal
    continuation is required (purely propositional facts, [EU] into a
    propositional target), and a lasso when an [EG] is involved.
    [limits] is threaded to every fixpoint and ring descent involved; a
    breach raises [Bdd.Limits.Exhausted]. *)

val witness :
  ?limits:Bdd.Limits.t ->
  ?engine:Ctl.Fair.engine ->
  Kripke.t -> Ctl.t -> Kripke.Trace.t option
(** A trace from some initial state demonstrating the (existential)
    formula; [None] when no initial state satisfies it. *)

val counterexample :
  ?limits:Bdd.Limits.t ->
  ?engine:Ctl.Fair.engine ->
  Kripke.t -> Ctl.t -> Kripke.Trace.t option
(** A trace from some initial state demonstrating the *negation* of the
    formula; [None] when the formula holds on every initial state
    (i.e. the specification is true and there is nothing to show).
    [?engine] here and on {!witness} is ignored, kept only for
    [perfbench/probe.ml]. *)
