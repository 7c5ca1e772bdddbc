(** Abstract syntax of the SMV input language subset.

    The supported fragment covers what the paper's case studies need:
    one [MODULE main] with [VAR] declarations over booleans,
    enumerations and integer ranges; [ASSIGN] sections with
    [init(x) :=] / [next(x) :=] / [x :=] assignments (the last is an
    invariant definition); raw [INIT] / [TRANS] / [INVAR] constraints;
    [FAIRNESS] constraints; and CTL [SPEC]s.  Module instantiation and
    [DEFINE] are not supported. *)

type pos = { line : int; col : int }

(** Expressions; temporal operators are only legal inside [SPEC]. *)
type expr = { desc : desc; pos : pos }

and desc =
  | Etrue
  | Efalse
  | Eint of int
  | Eident of string  (** variable or enumeration constant *)
  | Enext of expr     (** [next(x)] — only in TRANS / SPEC-free contexts *)
  | Enot of expr
  | Eand of expr * expr
  | Eor of expr * expr
  | Eimp of expr * expr
  | Eiff of expr * expr
  | Eeq of expr * expr
  | Eneq of expr * expr
  | Elt of expr * expr
  | Ele of expr * expr
  | Egt of expr * expr
  | Ege of expr * expr
  | Eadd of expr * expr
  | Esub of expr * expr
  | Emod of expr * expr
  | Ein of expr * expr  (** set membership: [e in {a, b}] *)
  | Eset of expr list  (** [{a, b, c}] — nondeterministic choice *)
  | Ecase of (expr * expr) list  (** [case g1 : e1; ... esac] *)
  | Eex of expr
  | Eef of expr
  | Eeg of expr
  | Eax of expr
  | Eaf of expr
  | Eag of expr
  | Eeu of expr * expr
  | Eau of expr * expr

type dtype =
  | Tbool
  | Tenum of string list
  | Trange of int * int
  | Tinstance of string * expr list
      (** a submodule instance: module name and actual parameters *)
  | Tprocess of string * expr list
      (** an asynchronously interleaved instance: at each step one
          process (or the top level) runs while the variables owned by
          the others stay frozen *)

type assign_kind = Ainit | Anext | Acurrent

type decl =
  | Dvar of (string * dtype) list
  | Dassign of (assign_kind * string * expr * pos) list
  | Dinit of expr
  | Dtrans of expr
  | Dinvar of expr
  | Dfairness of expr
  | Ddefine of (string * expr * pos) list
  | Dspec of expr

type module_decl = {
  mod_name : string;
  params : string list;
  decls : decl list;
  mod_pos : pos;
}

type program = {
  modules : module_decl list;  (** [main] must be among them *)
}

val pp_pos : Format.formatter -> pos -> unit

val expr_to_string : expr -> string
(** Source-like rendering (used to name SPECs in reports). *)
