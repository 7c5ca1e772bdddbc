(** CTL formulas (Section 3 of the paper).

    The existential operators [EX], [EU], [EG] are primitive for the
    checker; universal operators are kept in the AST for faithful
    printing and are rewritten by {!enf} using the dualities of
    Section 3.  [Pred] embeds a raw BDD state set, which is how the
    witness algorithms name concrete states (e.g. [{s'} /\ EX E[f U {t}]]
    in Section 6). *)

type t =
  | True
  | False
  | Atom of string  (** looked up in the model's labels *)
  | Pred of Bdd.t   (** a literal state set *)
  | Not of t
  | And of t * t
  | Or of t * t
  | Imp of t * t
  | Iff of t * t
  | EX of t
  | EF of t
  | EG of t
  | EU of t * t
  | AX of t
  | AF of t
  | AG of t
  | AU of t * t

(** {1 Convenience constructors} *)

val atom : string -> t
val ( &&& ) : t -> t -> t
val ( ||| ) : t -> t -> t
val ( ==> ) : t -> t -> t
val neg : t -> t

val map_pred : (Bdd.t -> Bdd.t) -> t -> t
(** Rewrite every embedded [Pred] state set, leaving the formula
    skeleton untouched. *)

val preds : t -> Bdd.t list
(** Every embedded [Pred] state set: what a caller keeping the formula
    across a [Bdd.gc] must root. *)

(** {1 Normal form} *)

val enf : t -> t
(** Existential normal form: eliminate [Imp]/[Iff] and rewrite the
    universal operators so only [True], [False], [Atom], [Pred], [Not],
    [And], [Or], [EX], [EU], [EG] remain:

    - [AX f  = !EX !f]
    - [EF f  = E[true U f]]
    - [AG f  = !E[true U !f]]
    - [AF f  = !EG !f]
    - [A[f U g] = !E[!g U (!f /\ !g)] /\ !EG !g]  *)

val push_neg : t -> t
(** {!enf} followed by pushing negations inward until they guard only
    atoms / predicates (temporal operators are never negated in the
    result except through the residual [Not] introduced by [EG]/[EU]
    duals, which this function removes by construction).  Used by the
    counterexample explainer. *)

val size : t -> int
(** Number of AST nodes. *)

val atoms : t -> string list
(** Atom names occurring in the formula, sorted, without duplicates. *)

val pp : Format.formatter -> t -> unit
(** Concrete syntax compatible with {!Parse.formula}. *)

val to_string : t -> string
