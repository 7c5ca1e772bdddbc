(** Witness construction for the basic CTL operators (Section 6).

    All functions take state sets that must come from the corresponding
    checker ({!Ctl.Check} / {!Ctl.Fair}) on the same model, and a
    concrete start state satisfying the formula; they return an
    execution trace demonstrating it.  [EG] witnesses are lassos whose
    cycle visits every fairness constraint of the model at least once —
    the "finite witness" of Section 6; by Theorem 1 finding a
    minimal-length one is NP-complete, so the construction is the
    paper's greedy heuristic: repeatedly descend the saved onion rings
    to the nearest not-yet-visited fairness constraint, then close the
    cycle. *)

exception No_witness of string
(** Raised when the start state does not satisfy the formula the
    witness is requested for (i.e. the caller did not check first), or
    when an internal invariant is broken. *)

(** How to complete the cycle of a fair [EG] witness (Section 6). *)
type strategy =
  | Restart
      (** the simple strategy: try to close the cycle after visiting
          all constraints; on failure restart the construction from the
          path's final state (descending the SCC DAG, Figure 2).  A
          round that cannot close is detected going forward
          ({!Ctl.Check.reaches} from the successors of its last state
          through [f]); the backward closing rings are built only for
          a round that closes. *)
  | Precompute
      (** the "slightly more sophisticated" strategy: after fixing the
          cycle-start state [t], precompute [E[(EG f) U {t}]] and
          restart as soon as the path first leaves that set *)

type stats = {
  restarts : int;  (** completed constraint rounds that failed to close *)
  rounds : int;    (** total constraint-visiting rounds (restarts + 1) *)
  choice_s : float;  (** seconds in nearest-constraint choices *)
  descents_s : float;  (** seconds in descents into constraints *)
  closing_s : float;  (** seconds in closing sweeps and their descents *)
}

exception
  Restart_bound_exceeded of {
    restarts : int;             (** failed rounds completed *)
    rounds : int;               (** rounds attempted *)
    prefix : Kripke.state list; (** path collected before giving up *)
  }
(** Raised by {!eg_stats} / {!eg} when the construction exceeds its
    restart bound, preserving the work done so far for diagnosis
    (unlike {!No_witness}, which reports contract violations). *)

val ex :
  ?limits:Bdd.Limits.t ->
  Kripke.t -> f:Bdd.t -> start:Kripke.state -> Kripke.Trace.t
(** Two-state witness for [EX f] (no fairness): [start] followed by a
    successor in [f].  Every function below accepts [?limits]: each
    ring-descent segment charges one step against the budget (raising
    [Bdd.Limits.Exhausted] on a breach), and the fair-[EG] construction
    records its best-so-far path prefix in the limits' progress so a
    breach still reports partial work.  Limits never change the
    witness, only whether the construction is allowed to finish. *)

val eu :
  ?limits:Bdd.Limits.t ->
  ?rings:Bdd.t array ->
  Kripke.t -> f:Bdd.t -> g:Bdd.t -> start:Kripke.state -> Kripke.Trace.t
(** Finite witness for [E[f U g]] (no fairness): a shortest-via-rings
    path from [start] through [f]-states to a [g]-state.  [rings], when
    given, must be [Ctl.Check.eu_rings m f g] already computed (the
    fixpoint that decided [E[f U g]]), or a prefix of it whose last
    layer holds [start]: the descent reads only the layers below
    [start]'s least one.  Otherwise they are built here. *)

val eg :
  ?limits:Bdd.Limits.t ->
  ?hull:Bdd.t * Ctl.Fair.rings list ->
  ?strategy:strategy ->
  Kripke.t -> f:Bdd.t -> start:Kripke.state -> Kripke.Trace.t
(** Lasso witness for [EG f] under the model's fairness constraints
    (all of Section 6).  With no declared constraints this degenerates
    to a plain [EG] witness.  [hull], when given, must be
    [Ctl.Fair.eg_rings m f] already computed: the lasso then descends
    its rings and runs no fixpoint of its own. *)

val eg_stats :
  ?limits:Bdd.Limits.t ->
  ?hull:Bdd.t * Ctl.Fair.rings list ->
  ?strategy:strategy ->
  ?max_restarts:int ->
  Kripke.t ->
  f:Bdd.t ->
  start:Kripke.state ->
  Kripke.Trace.t * stats
(** Like {!eg} but also reports how many rounds the construction
    needed — the quantity the strategy ablation (experiment E3)
    measures — and where its time went (experiment E8).  [max_restarts] (default one million, a backstop far
    above the state-count bound on legitimate restarts) caps the failed
    rounds; exceeding it raises {!Restart_bound_exceeded} with the
    collected prefix and counts. *)
