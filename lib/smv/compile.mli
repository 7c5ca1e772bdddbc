(** Compilation of SMV programs to symbolic Kripke structures.

    Semantics:
    - declared variables whose [next] is unassigned evolve freely;
    - [next(x) := e] contributes the relation [\/_v (e = v /\ x' = v)];
      nondeterministic sets make the disjuncts overlap;
    - [x := e] is an invariant definition ([x = e] in every state);
    - [INVAR phi] constrains every state ([phi] is conjoined into the
      initial states and both endpoints of the transition relation);
    - [TRANS] may mention [next(x)]; other sections may not;
    - [SPEC] formulas become {!Ctl.t} values whose atoms are the
      [Pred] state sets of their propositional subexpressions;
    - every boolean variable is also exported as a label, so the CLI
      can accept plain CTL formulas over variable names. *)

exception Error of string * Ast.pos option
(** A type or semantic error, with its source position if known. *)

type compiled = {
  model : Kripke.t;
  specs : (string * Ctl.t) list;
      (** each [SPEC], with its source-like rendering *)
  defines : (string * Ast.expr) list;
      (** the [DEFINE] macros, for {!compile_expr} *)
  clusters : Bdd.t list;
      (** the transition clusters ({!Kripke.Builder.clusters}), kept so
          a later degraded retry can install a partitioned relation
          ({!Kripke.with_partition}) without recompiling.  Callers that
          hold a [compiled] across a [Bdd.gc] must root them. *)
}

val compile : ?partitioned:bool -> ?static_order:bool -> Ast.program -> compiled
(** The image method (monolithic, or partitioned with one cluster per
    [next] assignment / [TRANS] constraint) is {!Kripke.Builder.build}'s
    choice; [?partitioned] is accepted and ignored, for old callers.

    The BDD variable order is seeded by a dependency-graph proximity
    heuristic: variables co-occurring in small constraints are placed
    adjacently (greedy max-adjacency over co-occurrence weights
    [1/(k-1)], declaration order breaking ties), current/next bit pairs
    stay interleaved ({!Kripke.Builder.seed_order}).  The order changes
    node counts only, never a verdict or trace byte.  [?static_order]
    is accepted and ignored, for old callers. *)

val compile_expr : compiled -> string -> Ctl.t
(** Parse and compile an additional specification against a compiled
    model (the CLI's [--spec] flag).  Raises {!Error}, {!Parser.Error}
    or {!Lexer.Error}. *)
