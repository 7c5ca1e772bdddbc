(** Explicit-state CTL model checking — the EMC baseline of Section 4
    and the independent oracle the symbolic checker is tested against.

    Satisfaction sets are boolean masks over the graph's states.  The
    fair [EG] here is computed from strongly connected components (an
    SCC of [f]-states that is non-trivial and intersects every fairness
    constraint, reached backwards through [f]-states), deliberately
    *not* the fixpoint characterisation the symbolic checker uses, so
    the two implementations cross-validate each other. *)

val ex : Egraph.t -> bool array -> bool array
val eu : Egraph.t -> bool array -> bool array -> bool array
val eg : Egraph.t -> bool array -> bool array

val fair_eg : Egraph.t -> bool array -> bool array
(** [EG f] over the graph's fairness constraints, via fair SCCs. *)

val fair_states : Egraph.t -> bool array
(** [fair_eg true]. *)

val sat :
  Egraph.t ->
  atom:(string -> bool array) ->
  ?pred:(Bdd.t -> bool array) ->
  Ctl.t ->
  bool array
(** Evaluate a CTL formula, resolving atoms with [atom] (which should
    raise for unknown names).  [pred] resolves symbolic [Ctl.Pred]
    leaves to state masks (e.g. the mask function of
    {!Bridge.of_kripke}, when the formula was compiled against the
    symbolic model the graph was extracted from); without it a [Pred]
    raises [Invalid_argument].  No fairness. *)

val sat_fair :
  ?fair_states:bool array ->
  ?memo:(Ctl.t, bool array) Hashtbl.t ->
  Egraph.t ->
  atom:(string -> bool array) ->
  ?pred:(Bdd.t -> bool array) ->
  Ctl.t ->
  bool array
(** Evaluate over fair paths (the graph's fairness constraints).
    [fair_states], when given, must be {!fair_states} of the graph,
    already computed; otherwise it is recomputed here, an SCC
    decomposition per call.  [memo] caches the mask of every
    subformula (in the existential normal form the evaluation
    rewrites to), so calls sharing it evaluate each subformula
    once; share it only among calls with the same graph, atoms,
    [pred] and fairness. *)

val holds :
  Egraph.t ->
  atom:(string -> bool array) ->
  ?pred:(Bdd.t -> bool array) ->
  Ctl.t ->
  bool
(** All initial states satisfy the formula (no fairness). *)

val holds_fair :
  Egraph.t ->
  atom:(string -> bool array) ->
  ?pred:(Bdd.t -> bool array) ->
  Ctl.t ->
  bool
