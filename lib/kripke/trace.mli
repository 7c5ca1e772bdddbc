(** Execution traces: witnesses and counterexamples.

    A trace is a finite prefix optionally followed by a repeating cycle
    (the "finite witness" of Section 6: an infinite path presented as
    prefix + loop).  States are concrete bit vectors of the model they
    were produced from. *)

type t = {
  prefix : Model.state list;  (** never empty for a produced trace *)
  cycle : Model.state list;
      (** empty for finite witnesses (e.g. of [EU]); otherwise the loop
          body, whose last state has the first cycle state as a
          successor *)
}

val finite : Model.state list -> t
(** A trace with no loop. *)

val lasso : prefix:Model.state list -> cycle:Model.state list -> t

val length : t -> int
(** Total number of states ([prefix] + [cycle]) — the "length of a
    finite witness" of Section 6. *)

val states : t -> Model.state list
(** Prefix followed by cycle. *)

val nth : t -> int -> Model.state
(** State at position [i] of the infinite unrolling: prefix states
    first, then the cycle repeated forever.  For finite traces the last
    state repeats (self-loop view).  Raises [Invalid_argument] on an
    empty trace. *)

val is_lasso : t -> bool

val append : t -> t -> t
(** [append a b] concatenates a finite trace [a] (its cycle must be
    empty) with [b]; the last state of [a] must equal the first state
    of [b] and is not duplicated.  Raises [Invalid_argument]
    otherwise. *)

val pp : Model.t -> Format.formatter -> t -> unit
(** SMV-style rendering: numbered states, values printed only when they
    change, "-- loop starts here --" before the cycle.  Each state is
    [state 1.N:] on its own line, then one [  name = value] line per
    changed variable, then a line holding only the two-space indent.
    The text is built in one pass and printed as one string, so the
    formatter does no layout of its own: call it at the start of a
    line. *)
