(** Symbolic Kripke structures.

    A labelled state-transition graph [(AP, S, L, N, S0)] (Section 3 of
    the paper) represented with BDDs: the state space is the set of
    assignments to a vector of boolean {e bits}, grouped into named
    variables (booleans, enumerations, integer ranges); the transition
    relation [N(v, v')] is a BDD over two interleaved copies of the
    bits; fairness constraints are state sets.

    Bit [b] of the state vector is BDD variable [2b] in the current
    copy and [2b + 1] in the next copy — the interleaved order that
    keeps transition relations small. *)

(** The type of a state variable's values. *)
type vtype =
  | Bool
  | Enum of string list  (** named constants, in declaration order *)
  | Range of int * int   (** inclusive integer interval *)

type var = private {
  var_name : string;
  vtype : vtype;
  bits : int array;  (** state-vector bit indices, least significant first *)
}
(** A state variable and the bits that encode it. *)

type state = bool array
(** A concrete state: one boolean per state-vector bit. *)

(** A concrete value of a variable. *)
type value = B of bool | S of string | I of int

type schedule_step = private {
  cluster : Bdd.t;
  quant : Bdd.t;
}
(** One step of an early-quantification image schedule: conjoin
    [cluster], then quantify the variables of [quant] (which occur in
    no later cluster). *)

type t = private {
  man : Bdd.man;
  vars : var array;
  nbits : int;
  space : Bdd.t;    (** valid encodings (non-power-of-two domains) *)
  init : Bdd.t;     (** S0, a subset of [space] *)
  trans : Bdd.t;    (** N(v, v'), both endpoints within [space] *)
  pre_schedule : schedule_step list option;
      (** when set, {!pre} uses the partitioned relation *)
  post_schedule : schedule_step list option;
  fairness : Bdd.t list;  (** fairness constraints, as state sets *)
  labels : (string * Bdd.t) list;  (** named atomic propositions *)
  mutable fair_memo : Bdd.t option;
      (** cached fair-EG fixpoint; see {!fair_memo} *)
  mutable reach_memo : Bdd.t option;
      (** cached reachable-state fixpoint; see {!reach_memo} *)
}
(** A symbolic Kripke structure.  Use {!make} (or [Builder]) to obtain
    one; the constructor enforces the [space] invariants. *)

val make :
  man:Bdd.man ->
  vars:var list ->
  nbits:int ->
  ?space:Bdd.t ->
  init:Bdd.t ->
  trans:Bdd.t ->
  ?fairness:Bdd.t list ->
  ?labels:(string * Bdd.t) list ->
  unit ->
  t
(** Assemble a model.  [init] and both endpoints of [trans] are
    conjoined with [space] (default: all encodings valid), and fairness
    constraints are intersected with [space].  The model's BDDs are
    registered as garbage-collection roots with [man] (see {!roots} and
    [Bdd.gc]), so an explicit collection never sweeps them. *)

val roots : t -> Bdd.t list
(** Every BDD the model owns (space, init, transition relation,
    schedules, fairness constraints, labels) — the set {!make} registers
    with [Bdd.add_root]. *)

val with_partition : t -> Bdd.t list -> t
(** [with_partition m clusters] — the same model with image
    computations ({!pre}, {!post}, and hence every checker built on
    them) evaluated over the {e conjunctively partitioned} transition
    relation [clusters] with early quantification: each cluster is
    conjoined in turn and the next-state (resp. current-state)
    variables that appear in no later cluster are quantified out
    immediately, keeping intermediate BDDs small (the technique of
    Burch-Clarke-Long used by SMV).  The conjunction of [clusters]
    must equal the model's monolithic transition relation (within
    [space]); raises [Invalid_argument] otherwise. *)

val partitioned : t -> bool
(** Is a partitioned schedule installed? *)

val clone_into : Bdd.man -> t -> t
(** [clone_into dst m] — a deep copy of the model whose every BDD
    (space, init, transition relation, schedules, fairness, labels)
    lives in [dst], built with [Bdd.transfer]; the clone registers its
    own garbage-collection roots with [dst].  The copy reads only
    immutable node structure, never the source manager's tables, so
    several domains may clone the same model concurrently — this is how
    each worker of a parallel run gets a private model on a private
    single-domain manager, keeping BDD hot paths lock-free.  A clone is
    observationally identical: verdicts, witnesses and traces computed
    on it are bit-for-bit those of the original.  Raises
    [Invalid_argument] when [dst] is the model's own manager. *)

val with_fairness : t -> Bdd.t list -> t
(** The same model under different fairness constraints (cheap: all
    BDDs are shared).  Used by the CTL* witness machinery, which turns
    [GF p] conjuncts into fairness constraints (Section 7).  The
    fair-states cache is reset — it depends on the constraints. *)

val fair_memo : t -> Bdd.t option
(** The cached set of fair states ([Ctl.Fair.fair_states] computes and
    stores it), valid for this model's current fairness constraints.
    Rooted with the model's other diagrams, so it survives [Bdd.gc]
    and reordering. *)

val set_fair_memo : t -> Bdd.t option -> unit
(** Store (or clear) the fair-states cache.  Intended for the fair
    checking layer; the cached diagram must live in the model's own
    manager. *)

val reach_memo : t -> Bdd.t option
(** The cached reachable-state set ({!reachable} computes and stores
    it).  Unlike {!fair_memo} it depends on nothing mutable — only
    [init] and [trans] — so it is never invalidated: {!with_fairness}
    and {!with_partition} keep it, {!clone_into} transfers it, and a
    warm check server reuses it across every request on the same
    model.  Rooted with the model's other diagrams, so it survives
    [Bdd.gc] and reordering. *)

val set_reach_memo : t -> Bdd.t option -> unit
(** Store (or clear) the reachability cache; the cached diagram must
    live in the model's own manager. *)

val mk_var : name:string -> vtype:vtype -> first_bit:int -> var
(** Lay out a variable starting at bit [first_bit]; used by frontends
    that do their own bit allocation.  Raises [Invalid_argument] for an
    empty enumeration or an empty range. *)

val width : vtype -> int
(** Number of bits needed for a variable of this type. *)

(** {1 Current / next copies} *)

val cur_bit : t -> int -> Bdd.t
(** BDD variable for bit [b] in the current copy. *)

val nxt_bit : t -> int -> Bdd.t
(** BDD variable for bit [b] in the next copy. *)

val prime : t -> Bdd.t -> Bdd.t
(** Rename a current-copy predicate to the next copy. *)

val unprime : t -> Bdd.t -> Bdd.t
(** Rename a next-copy predicate to the current copy. *)

val cur_cube : t -> Bdd.t
(** Quantification cube of all current-copy BDD variables. *)

val nxt_cube : t -> Bdd.t
(** Quantification cube of all next-copy BDD variables. *)

(** {1 Images} *)

val pre : t -> Bdd.t -> Bdd.t
(** [pre m s] — states with at least one successor in [s]; the symbolic
    [EX] operator: exists v'. [N(v,v') /\ s(v')]. *)

val post : t -> Bdd.t -> Bdd.t
(** [post m s] — successors of states in [s]. *)

val reachable : ?limits:Bdd.Limits.t -> t -> Bdd.t
(** Least fixpoint of [post] from [init].  [limits] charges one step
    per frontier iteration and is polled inside the image computations
    (when attached to the manager); a breach raises
    [Bdd.Limits.Exhausted].  Memoised on the model ({!reach_memo}):
    only the first completed call computes; later calls — including
    warm check-server requests on a cached model — return the stored
    set without charging any steps. *)

val deadlocks : t -> Bdd.t
(** States of [space] with no successor.  CTL semantics (and the
    witness algorithms) assume a total transition relation; a non-empty
    result means the model should be repaired, e.g. with
    {!Builder.totalize}. *)

val count_states : t -> Bdd.t -> float
(** Number of states in a set (exact while below 2^53). *)

(** {1 Concrete states} *)

val var_by_name : t -> string -> var
(** Raises [Not_found]. *)

val label : t -> string -> Bdd.t
(** Look up an atomic proposition; raises [Not_found]. *)

val value_of_state : var -> state -> value
(** Decode a variable's value from a concrete state.  Out-of-domain
    encodings of enums / ranges raise [Invalid_argument] (cannot happen
    for states drawn from [space]). *)

val state_to_bdd : t -> state -> Bdd.t
(** The singleton set containing a state (a full cube over the current
    copy). *)

val pick_state : t -> Bdd.t -> state option
(** A deterministic representative of a state set (lexicographically
    least within [space], by bit index — the same under any variable
    order); [None] if the set is empty.  The result is a
    {e total} assignment: state bits the set does not constrain are
    pinned to [false], so [state_to_bdd] of the result is always a
    subset of the set.  Raises [Invalid_argument] if the set constrains
    next-copy variables (it is then not a state set). *)

val pick_random_state : t -> rng:Random.State.t -> Bdd.t -> state option
(** A uniformly random member of a state set, chosen symbolically (one
    weighted cofactor descent per state bit — no enumeration, so it is
    safe on sets with astronomically many states); [None] if the set is
    empty.  Raises [Invalid_argument] if the set constrains next-copy
    variables. *)

val pick_successor : t -> state -> Bdd.t -> state option
(** [pick_successor m s target] — a successor of [s] inside [target]. *)

val states_in : t -> Bdd.t -> state list
(** Enumerate a state set (intended for small sets / tests). *)

val eval_in_state : t -> Bdd.t -> state -> bool
(** Does a state belong to a (current-copy) set? *)

(** {1 Printing} *)

val pp_value : Format.formatter -> value -> unit

val pp_state : t -> Format.formatter -> state -> unit
(** All variables, one [name = value] per line. *)

val pp_state_diff : t -> prev:state -> Format.formatter -> state -> unit
(** Only the variables whose value changed w.r.t. [prev] (SMV style). *)

(** {1 Skeletons (warm-state persistence)} *)

type skeleton
(** The pure-data shadow of a model: variable layout plus the [Bdd.t]
    handles of every diagram the model owns (including schedules and
    the fair/reachable memos).  Handles are immediate ints, so a
    skeleton marshals as plain data — but it is only meaningful
    against the exact manager it was taken from, or a [Bdd.Snapshot]
    restore of that manager (snapshots preserve handles bit-for-bit). *)

val skeleton : t -> skeleton
(** Capture [m]'s skeleton.  The model is read, not mutated. *)

val of_skeleton : man:Bdd.man -> skeleton -> t
(** Rebuild a model over [man] from a skeleton taken against it (or
    against the manager its snapshot came from).  Re-registers GC
    roots and re-declares the current/next reordering pair groups,
    exactly as {!make} does. *)
