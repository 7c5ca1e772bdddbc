(** CTL model checking under fairness constraints (Section 5).

    The model's [fairness] field lists state sets [H = {h_1, ..., h_n}];
    path quantifiers range over paths along which every [h_k] holds
    infinitely often.  A model with an empty list behaves as if it had
    the single trivial constraint [true], which makes the witness
    machinery uniform (a plain [EG] witness is a fair [EG] witness for
    [H = {true}]). *)

type rings = {
  constr : Bdd.t;  (** the fairness constraint [h] *)
  layers : Bdd.t array;
      (** the saved approximations [Q^h_i] of [E[f U (Z /\ h)]] from the
          final outer iteration, [Q^h_0 = Z /\ h] *)
}
(** The "onion rings" Section 6's witness construction descends. *)

type engine = El  (** the paper's Emerson-Lei nested fixpoint *)
(** Kept only because [perfbench/probe.ml] names [El] and passes it to
    {!holds}; Emerson-Lei is the only fair-cycle engine.  Remove with
    the [?engine] argument of {!holds} once perfbench may change. *)

type fixpoint_stats = {
  outer_iterations : int;
      (** iterations of the fair-[EG] outer greatest fixpoint *)
  ring_layers : int;
      (** layers saved by {!eg_with_rings} for witness generation *)
}
(** Counters accumulated process-wide since the last
    {!reset_fixpoint_stats}; the nested [EU] sweeps the outer fixpoint
    runs are counted by [Check.fixpoint_stats]. *)

val fixpoint_stats : unit -> fixpoint_stats
(** Snapshot the counters. *)

val reset_fixpoint_stats : unit -> unit
(** Zero the counters. *)

val constraints : Kripke.t -> Bdd.t list
(** The effective fairness constraints: the model's list, or [[true]]
    when it is empty. *)

val eg : ?limits:Bdd.Limits.t -> Kripke.t -> Bdd.t -> Bdd.t
(** [CheckFairEG] — the Emerson-Lei greatest fixpoint
    [gfp Z. f /\ /\_k EX (E[f U (Z /\ h_k)])].  Every function below
    accepts [?limits]: outer iterations and nested fixpoint iterations
    each charge one step against the budget (raising
    [Bdd.Limits.Exhausted] on a breach); limits never change results,
    only whether the computation is allowed to finish. *)

val eg_with_rings :
  ?limits:Bdd.Limits.t -> Kripke.t -> Bdd.t -> Bdd.t * rings list
(** Fair [EG] together with the ring sequences, one per effective
    constraint, extracted from the converged fixpoint
    ([Check.eu_rings] against [Z /\ h_k]). *)

val fair_states : ?limits:Bdd.Limits.t -> Kripke.t -> Bdd.t
(** [fair = CheckFairEG true]: states at the start of some fair path.
    Memoised on the model ([Kripke.fair_memo]). *)

val ex : ?limits:Bdd.Limits.t -> Kripke.t -> Bdd.t -> Bdd.t
(** [CheckFairEX f = CheckEX (f /\ fair)]. *)

val eu : ?limits:Bdd.Limits.t -> Kripke.t -> Bdd.t -> Bdd.t -> Bdd.t
(** [CheckFairEU f g = CheckEU f (g /\ fair)]. *)

val sat : ?limits:Bdd.Limits.t -> Kripke.t -> Syntax.t -> Bdd.t
(** Full CTL over fair paths ([CheckFair]). *)

val holds : ?limits:Bdd.Limits.t -> ?engine:engine -> Kripke.t -> Syntax.t -> bool
(** Does every initial state satisfy the formula over fair paths?
    [?engine] is ignored, kept only for [perfbench/probe.ml]. *)
