(** Symbolic CTL model checking without fairness (Section 4).

    Every function returns state sets as subsets of the model's valid
    encoding [space], so boolean negation behaves like set complement
    within the state space. *)

exception Unknown_atom of string
(** Raised when a formula mentions an atom the model does not label. *)

type fixpoint_stats = {
  eu_iterations : int;
      (** [EU] fixpoint steps, {!eu_resume} sweeps included: a sweep
          that stops short of its fixpoint counts only the layers it
          built, and a resumed one only its new layers *)
  eg_iterations : int;  (** plain [EG] fixpoint steps *)
  ring_layers : int;
      (** layers built by {!sweep} and {!eu_resume}, each counted once,
          when it is built *)
  forward_iterations : int;  (** {!reaches} image steps *)
}
(** Iteration counters, accumulated process-wide (across all models)
    since the last {!reset_fixpoint_stats}. *)

val fixpoint_stats : unit -> fixpoint_stats
(** Snapshot the counters. *)

val reset_fixpoint_stats : unit -> unit
(** Zero the counters. *)

val sat : ?limits:Bdd.Limits.t -> Kripke.t -> Syntax.t -> Bdd.t
(** [sat m f] — the set of states of [m] satisfying [f] (the [Check]
    procedure of Section 4).  Every fixpoint below accepts [?limits]:
    each iteration charges one step against the budget (raising
    [Bdd.Limits.Exhausted] on a breach); limits never change results,
    only whether the computation is allowed to finish. *)

val holds : ?limits:Bdd.Limits.t -> Kripke.t -> Syntax.t -> bool
(** Does every initial state satisfy the formula? *)

val ex : Kripke.t -> Bdd.t -> Bdd.t
(** [CheckEX]: states with a successor in the argument set. *)

val eu : ?limits:Bdd.Limits.t -> Kripke.t -> Bdd.t -> Bdd.t -> Bdd.t
(** [CheckEU f g]: least fixpoint [lfp Z. g \/ (f /\ EX Z)]. *)

val eg : ?limits:Bdd.Limits.t -> Kripke.t -> Bdd.t -> Bdd.t
(** [CheckEG f]: greatest fixpoint [gfp Z. f /\ EX Z]. *)

val sat_with :
  ex:(Kripke.t -> Bdd.t -> Bdd.t) ->
  eu:(Kripke.t -> Bdd.t -> Bdd.t -> Bdd.t) ->
  eg:(Kripke.t -> Bdd.t -> Bdd.t) ->
  Kripke.t ->
  Syntax.t ->
  Bdd.t
(** Generic traversal with the three basic operators supplied; the fair
    checker instantiates it with [CheckFairEX/EU/EG] (Section 5). *)

type sweep = {
  mutable layers : Bdd.t array;
      (** [Q_0 .. Q_j], a prefix of the sequence below; never empty *)
  mutable converged : bool;  (** [Q_j] is the fixpoint *)
}
(** The onion rings of one [E[f U g]], built as far as a consumer
    needed them. *)

val sweep : Bdd.t -> sweep
(** [sweep g] — the rings [[| g |]], not converged. *)

val eu_resume :
  ?limits:Bdd.Limits.t ->
  ?stop:(Bdd.t -> bool) ->
  Kripke.t ->
  Bdd.t ->
  sweep ->
  unit
(** [eu_resume m f s] extends [s] by [Q_{i+1} = Q_i \/ (f /\ EX Q_i)]
    until [stop] (default: never) holds of its last layer or the
    fixpoint is reached; [f] must be the operand [s] was swept with.
    Each iteration charges [limits] one step.  The layers built so far
    stay in [s] when a breach (or any exception) ends the sweep, so a
    later call resumes where it stopped.  The caller roots whatever
    [stop] reads. *)

val eu_rings :
  ?limits:Bdd.Limits.t ->
  ?until:Bdd.t ->
  Kripke.t ->
  Bdd.t ->
  Bdd.t ->
  Bdd.t array
(** The increasing approximation sequence [Q_0 = g, Q_{i+1} = Q_i \/ (f
    /\ EX Q_i)] up to (and including) the fixpoint — the "onion rings"
    that witness construction walks down: {!eu_resume} of a fresh
    {!sweep}.  [Q_i] is the set of states that can reach [g] in [i] or
    fewer steps through [f]-states.

    With [until], the sweep stops at the least layer that meets
    [until] instead: the result is the prefix [Q_0 .. Q_j] of the full
    sequence, [Q_j] the first layer with a state in [until] (the whole
    sequence when no layer has one). *)

val reaches :
  ?limits:Bdd.Limits.t ->
  Kripke.t ->
  f:Bdd.t ->
  from:Bdd.t ->
  target:Bdd.t ->
  bool
(** Does some path from a [from]-state through [f]-states reach
    [target]?  That is, does [E[f U target]] meet [from] — exactly when
    the last layer of [eu_rings ~until:from m f target] meets [from] —
    decided by the forward least fixpoint [F_0 = from /\ f],
    [F_(k+1) = F_k \/ (f /\ post F_k)], which stops with [true] at the
    first image that meets [target] and with [false] when the layers
    converge.  Each image charges one step against [limits] and one
    [forward_iterations]. *)
