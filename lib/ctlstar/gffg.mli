(** Checking and witnessing the restricted CTL* class
    [E /\_j (GF p_j \/ FG q_j)] (Section 7).

    Conjuncts are given as pairs of state sets; a missing disjunct is
    the empty set.  The satisfaction set is computed with the fixpoint
    characterisation of Emerson and Lei quoted in the paper:

    [E /\_j (GF p_j \/ FG q_j)
       = EF gfp Y [ /\_j ((q_j /\ EX Y) \/ EX E[Y U (p_j /\ Y)]) ]]

    and witnesses are built by resolving each disjunction — testing
    whether the [FG q_j] branch can be taken — until the formula
    becomes [E (FG (/\ q) /\ /\ GF p)], i.e. [EF EG (/\ q)] under the
    fairness constraints [{p}], whose witness Section 6 provides. *)

type conjunct = {
  gf : Bdd.t;  (** the set [p] of [GF p]; empty when absent *)
  fg : Bdd.t;  (** the set [q] of [FG q]; empty when absent *)
}

(** How each disjunction was resolved when building a witness. *)
type resolution = Took_gf | Took_fg

val core : ?limits:Bdd.Limits.t -> Kripke.t -> conjunct list -> Bdd.t
(** The inner greatest fixpoint [gfp Y ...] (states from which the
    tail of a satisfying path can start).  Every function below accepts
    [?limits]: fixpoint iterations charge steps against the budget
    (raising [Bdd.Limits.Exhausted] on a breach) without changing any
    result. *)

val check : ?limits:Bdd.Limits.t -> Kripke.t -> conjunct list -> Bdd.t
(** The satisfaction set [EF core]. *)

val check_state :
  ?limits:Bdd.Limits.t -> Kripke.t -> Syntax.state_formula -> Bdd.t
(** Evaluate a CTL* state formula whose path quantifiers are all in the
    restricted class ([E] directly; [A φ] via [!E !φ] only when [!φ]
    classifies).  Raises {!Syntax.Unsupported} outside the fragment and
    {!Ctl.Check.Unknown_atom} for unknown atoms. *)

val holds : ?limits:Bdd.Limits.t -> Kripke.t -> Syntax.state_formula -> bool
(** All initial states satisfy the formula. *)

val resolve :
  ?limits:Bdd.Limits.t ->
  Kripke.t -> conjunct list -> start:Kripke.state -> resolution list
(** The branch choice made for each conjunct when demonstrating the
    formula from [start] (which must satisfy {!check}; raises
    [Counterex.Witness.No_witness] otherwise).  Exposed for tests and
    for the experiment that counts checker invocations. *)

val witness :
  ?limits:Bdd.Limits.t ->
  Kripke.t -> conjunct list -> start:Kripke.state -> Kripke.Trace.t
(** A lasso from [start] demonstrating [E /\_j (GF p_j \/ FG q_j)]:
    on the cycle, every resolved [GF p] set is visited and every
    resolved [FG q] set contains all cycle states. *)

val witness_stats :
  ?limits:Bdd.Limits.t ->
  Kripke.t ->
  conjunct list ->
  start:Kripke.state ->
  Kripke.Trace.t * Counterex.Witness.stats
(** {!witness} and the {!Counterex.Witness.eg_stats} of its lasso. *)

val witness_ok : Kripke.t -> conjunct list -> Kripke.Trace.t -> bool
(** Independent validation: the trace is a valid lasso of the model and
    its cycle satisfies every conjunct ([gf] hit at least once, or all
    cycle states inside [fg]). *)
