(** Imperative construction of symbolic Kripke structures.

    A builder owns a BDD manager, allocates bits for declared variables,
    and accumulates init / transition conjuncts, fairness constraints
    and labelled atomic propositions before sealing them into a
    {!Model.t}.

    The transition relation defaults to [true] (chaos); callers either
    conjoin full-relation constraints with {!add_trans} or use the
    per-variable {!assign_next} and then {!unchanged}/{!keep_all_but}
    for frame conditions. *)

type b

val create : ?man:Bdd.man -> unit -> b

val man : b -> Bdd.man

val bool_var : b -> string -> Model.var
(** Declare a boolean variable.  Raises [Invalid_argument] on duplicate
    names. *)

val enum_var : b -> string -> string list -> Model.var
(** Declare an enumerated variable with the given (non-empty, distinct)
    constants. *)

val range_var : b -> string -> int -> int -> Model.var
(** [range_var b name lo hi] declares an integer variable over
    [lo..hi]; requires [lo <= hi]. *)

val seed_order : b -> Model.var list -> unit
(** [seed_order b vars] installs a static BDD-variable order: the bits
    of [vars] in the given sequence, each state bit contributing its
    interleaved (current, next) pair — so related model variables end
    up adjacent regardless of declaration order.  [vars] must be a
    permutation of the declared variables ([Invalid_argument]
    otherwise).  Call after all declarations and before any constraint
    is added: on the still-empty manager installation is free. *)

(** {1 Predicates}

    Functions suffixed with ['] ({!is'}, {!v'}, ...) talk about the
    next-state copy; unsuffixed ones about the current copy. *)

val v : b -> Model.var -> Bdd.t
(** A boolean variable as a predicate (current copy).  Raises
    [Invalid_argument] for non-boolean variables. *)

val v' : b -> Model.var -> Bdd.t
(** Next copy of {!v}. *)

val is : b -> Model.var -> Model.value -> Bdd.t
(** [is b x value] — variable [x] has this value (current copy).
    Raises [Invalid_argument] if the value is outside the domain. *)

val is' : b -> Model.var -> Model.value -> Bdd.t
(** Next copy of {!is}. *)

val unchanged : b -> Model.var -> Bdd.t
(** The variable keeps its value across the transition. *)

val keep_all_but : b -> Model.var list -> Bdd.t
(** Frame condition: every declared variable not listed is unchanged. *)

(** {1 Accumulating the model} *)

val add_space : b -> Bdd.t -> unit
(** Conjoin a state-space invariant (e.g. an [INVAR] constraint): the
    model's [space] — and hence the initial states and both endpoints
    of every transition — is restricted to it. *)

val add_init : b -> Bdd.t -> unit
(** Conjoin a constraint on initial states. *)

val add_trans : b -> Bdd.t -> unit
(** Conjoin a transition constraint (may mention both copies). *)

val add_trans_case : b -> Bdd.t -> unit
(** Disjoin a transition alternative: the final relation is
    [conj add_trans * /\ disj add_trans_case *] (the disjunctive part
    is ignored when no case was added).  Convenient for interleaving
    models: one case per process/gate. *)

val add_fairness : b -> Bdd.t -> unit
(** Add a fairness constraint (a state set to be visited infinitely
    often). *)

val add_label : b -> string -> Bdd.t -> unit
(** Name an atomic proposition for use by formula parsers and
    printers. *)

val label_all_bools : b -> unit
(** Add a label for every declared boolean variable, named after it. *)

val clusters : b -> Bdd.t list
(** The accumulated transition clusters: every {!add_trans} conjunct
    plus (when any case was added) the disjunction of the
    {!add_trans_case}s as one more cluster.  Their conjunction is the
    monolithic relation {!build} installs. *)

val partition_ratio : int
(** {!build}'s threshold (8). *)

val cluster_nodes : Bdd.man -> Bdd.t list -> int
(** The sum of the clusters' [Bdd.size]s. *)

val build : b -> Model.t
(** Seal the model, computing images over the partitioned relation
    ({!Model.with_partition} over {!clusters}) exactly when the
    monolithic one has more than {!partition_ratio} times their
    {!cluster_nodes}; both give the same images.  The builder can keep
    being used afterwards, but this is rarely useful. *)

val totalize : Model.t -> Model.t
(** Add a self-loop to every deadlocked state, making the transition
    relation total (required by CTL semantics). *)
