(** Independent validation of produced traces.

    The witness generator and this validator share only the model: the
    validator re-checks traces against path semantics directly (state
    membership, transition-relation membership, fairness hits on the
    cycle), so a passing validation is evidence of soundness of the
    construction, not merely of internal consistency. *)

type error =
  | Empty_trace
  | Broken_transition of int  (** no edge between positions i and i+1 *)
  | Broken_loop  (** last cycle state has no edge back to the first *)
  | State_outside of int * string
      (** position i violates the named requirement *)
  | Missing_fairness of int  (** cycle misses fairness constraint #k *)

val pp_error : Format.formatter -> error -> unit

val has_edge : Kripke.t -> Kripke.state -> Kripke.state -> bool
(** [has_edge m a b] — is [(a, b)] in the model's transition relation
    (both endpoints within [space])?  An evaluation of the relation at
    the full assignment, reading the model alone. *)

val path_ok : Kripke.t -> Kripke.Trace.t -> (unit, error) result
(** Consecutive states (and the loop edge, for lassos) are transitions
    of the model, and every state lies in the model's state space. *)

val eg_witness : Kripke.t -> f:Bdd.t -> Kripke.Trace.t -> (unit, error) result
(** The trace is a valid lasso, every state satisfies [f], and every
    fairness constraint of the model holds somewhere on the cycle —
    i.e. it is a finite witness for fair [EG f] (Section 6). *)

val eu_witness : Kripke.t -> f:Bdd.t -> g:Bdd.t -> Kripke.Trace.t -> (unit, error) result
(** The trace is a valid finite path, its last state satisfies [g] and
    all earlier states satisfy [f]. *)

val ex_witness : Kripke.t -> f:Bdd.t -> Kripke.Trace.t -> (unit, error) result
(** The trace is a valid path of at least two states whose second state
    satisfies [f]. *)

(** The three witness checks above without their {!path_ok} step, for
    a trace whose path is already validated — in particular any suffix
    of a trace that passed {!path_ok}, whose edges are edges of that
    trace.  On a valid path each returns what its full check returns;
    an empty trace is still [Empty_trace]. *)
module On_path : sig
  val eg_witness : Kripke.t -> f:Bdd.t -> Kripke.Trace.t -> (unit, error) result
  val eu_witness :
    Kripke.t -> f:Bdd.t -> g:Bdd.t -> Kripke.Trace.t -> (unit, error) result
  val ex_witness : Kripke.t -> f:Bdd.t -> Kripke.Trace.t -> (unit, error) result
end

val starts_at : Kripke.t -> Bdd.t -> Kripke.Trace.t -> (unit, error) result
(** The first state belongs to the given set (e.g. the initial states,
    for counterexamples). *)
