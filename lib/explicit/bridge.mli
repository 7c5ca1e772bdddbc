(** Conversions between symbolic and explicit models.

    Used by the cross-validation tests (symbolic checker vs the EMC
    oracle on the same model) and by the benchmarks that compare the
    two technologies on one workload. *)

exception Too_large of int
(** Raised by {!of_kripke} when the state space exceeds the bound, or
    when a state has more bits than an int holds (states are indexed by
    their bits packed into an int); carries the state count. *)

val of_kripke :
  ?max_states:int ->
  Kripke.t ->
  Egraph.t * Kripke.state array * (Bdd.t -> bool array)
(** Enumerate a symbolic model into an explicit graph.  Returns the
    graph, the concrete state of each graph node, and a function
    converting a symbolic state set into an explicit mask (used to
    resolve atoms).  [max_states] defaults to [65536]. *)

val to_kripke :
  ?labels:(string * int list) list ->
  Egraph.t ->
  Kripke.t * (int -> Kripke.state)
(** Encode an explicit graph symbolically: one [Range]-typed variable
    [s] holds the state index; edges become cubes of the transition
    relation; fairness masks become state sets.  Returns the model and
    the encoding of each graph node.  [labels] attaches atomic
    propositions given as state lists. *)
