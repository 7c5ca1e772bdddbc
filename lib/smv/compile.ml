exception Error of string * Ast.pos option

type compiled = {
  model : Kripke.t;
  specs : (string * Ctl.t) list;
  defines : (string * Ast.expr) list;
  clusters : Bdd.t list;
}

let err ?pos fmt = Format.kasprintf (fun msg -> raise (Error (msg, pos))) fmt

(* Compilation environment. *)
type env = {
  builder : Kripke.Builder.b;
  bman : Bdd.man;
  vars : (string, Kripke.var) Hashtbl.t;
  consts : (string, unit) Hashtbl.t;  (* enumeration constants *)
  defines : (string, Ast.expr) Hashtbl.t;
  expanding : (string, unit) Hashtbl.t;  (* DEFINE cycle detection *)
}

let find_var env pos name =
  match Hashtbl.find_opt env.vars name with
  | Some v -> v
  | None -> err ~pos "undeclared variable %s" name

(* The domain of a variable, as values. *)
let domain (v : Kripke.var) =
  match v.Kripke.vtype with
  | Kripke.Bool -> [ Kripke.B false; Kripke.B true ]
  | Kripke.Enum names -> List.map (fun s -> Kripke.S s) names
  | Kripke.Range (lo, hi) -> List.init (hi - lo + 1) (fun i -> Kripke.I (lo + i))

let value_kind = function
  | Kripke.B _ -> "boolean"
  | Kripke.S _ -> "symbolic"
  | Kripke.I _ -> "integer"

(* Guarded-value denotation of deterministic expressions: a list of
   (value, condition) pairs whose conditions partition true.  [primed]
   selects the next-state copy for variable reads; [allow_next] permits
   [next(...)] (TRANS only). *)
let rec guarded env ~primed ~allow_next (e : Ast.expr) =
  let bool_pairs f =
    [ (Kripke.B true, f); (Kripke.B false, Bdd.not_ env.bman f) ]
  in
  match e.Ast.desc with
  | Ast.Etrue -> bool_pairs (Bdd.one env.bman)
  | Ast.Efalse -> bool_pairs (Bdd.zero env.bman)
  | Ast.Eint n -> [ (Kripke.I n, Bdd.one env.bman) ]
  | Ast.Eident name -> (
    match Hashtbl.find_opt env.defines name with
    | Some body ->
      if Hashtbl.mem env.expanding name then
        err ~pos:e.Ast.pos "cyclic DEFINE %s" name;
      Hashtbl.replace env.expanding name ();
      let result =
        (* [next] is not allowed inside a definition body itself. *)
        guarded env ~primed ~allow_next:false body
      in
      Hashtbl.remove env.expanding name;
      result
    | None ->
      if Hashtbl.mem env.consts name && not (Hashtbl.mem env.vars name) then
        [ (Kripke.S name, Bdd.one env.bman) ]
      else
        let v = find_var env e.Ast.pos name in
        let read value =
          if primed then Kripke.Builder.is' env.builder v value
          else Kripke.Builder.is env.builder v value
        in
        List.map (fun value -> (value, read value)) (domain v))
  | Ast.Enext inner ->
    if not allow_next then
      err ~pos:e.Ast.pos "next(...) is only allowed in TRANS constraints";
    if primed then err ~pos:e.Ast.pos "nested next(...)";
    guarded env ~primed:true ~allow_next:false inner
  | Ast.Enot _ | Ast.Eand _ | Ast.Eor _ | Ast.Eimp _ | Ast.Eiff _
  | Ast.Eeq _ | Ast.Eneq _ | Ast.Elt _ | Ast.Ele _ | Ast.Egt _ | Ast.Ege _
  | Ast.Ein _ ->
    bool_pairs (as_bool env ~primed ~allow_next e)
  | Ast.Eadd (a, b) -> arith env ~primed ~allow_next ~pos:e.Ast.pos "+" ( + ) a b
  | Ast.Esub (a, b) -> arith env ~primed ~allow_next ~pos:e.Ast.pos "-" ( - ) a b
  | Ast.Emod (a, b) ->
    let safe_mod x y =
      if y = 0 then err ~pos:e.Ast.pos "modulo by zero" else ((x mod y) + y) mod y
    in
    arith env ~primed ~allow_next ~pos:e.Ast.pos "mod" safe_mod a b
  | Ast.Ecase branches ->
    let rec flatten not_prior = function
      | [] -> []
      | (g, value) :: rest ->
        let gset = as_bool env ~primed ~allow_next g in
        let here = Bdd.and_ env.bman not_prior gset in
        let pairs =
          List.map
            (fun (v, cond) -> (v, Bdd.and_ env.bman here cond))
            (guarded env ~primed ~allow_next value)
        in
        pairs
        @ flatten (Bdd.and_ env.bman not_prior (Bdd.not_ env.bman gset)) rest
    in
    flatten (Bdd.one env.bman) branches
  | Ast.Eset _ ->
    err ~pos:e.Ast.pos
      "a set is only allowed on the right-hand side of an assignment"
  | Ast.Eex _ | Ast.Eef _ | Ast.Eeg _ | Ast.Eax _ | Ast.Eaf _ | Ast.Eag _
  | Ast.Eeu _ | Ast.Eau _ ->
    err ~pos:e.Ast.pos "a temporal operator is only allowed in SPEC"

(* Integer arithmetic over guarded values; conditions of equal results
   are merged so domains stay small. *)
and arith env ~primed ~allow_next ~pos what op a b =
  let as_int = function
    | Kripke.I i, cond -> (i, cond)
    | (Kripke.B _ | Kripke.S _), _ ->
      err ~pos "%s requires integer operands" what
  in
  let ga = List.map as_int (guarded env ~primed ~allow_next a) in
  let gb = List.map as_int (guarded env ~primed ~allow_next b) in
  let table = Hashtbl.create 16 in
  List.iter
    (fun (va, ca) ->
      List.iter
        (fun (vb, cb) ->
          let v = op va vb in
          let cond = Bdd.and_ env.bman ca cb in
          let prev =
            match Hashtbl.find_opt table v with
            | Some c -> c
            | None -> Bdd.zero env.bman
          in
          Hashtbl.replace table v (Bdd.or_ env.bman prev cond))
        gb)
    ga;
  Hashtbl.fold (fun v cond acc -> (Kripke.I v, cond) :: acc) table []

and as_bool env ~primed ~allow_next (e : Ast.expr) =
  let recur = as_bool env ~primed ~allow_next in
  let compare_values ~pos ~what op a b =
    let ga = guarded env ~primed ~allow_next a in
    let gb = guarded env ~primed ~allow_next b in
    (match (ga, gb) with
    | (va, _) :: _, (vb, _) :: _
      when value_kind va <> value_kind vb ->
      err ~pos "cannot compare %s and %s values with %s" (value_kind va)
        (value_kind vb) what
    | _, _ -> ());
    let hits =
      List.concat_map
        (fun (va, ca) ->
          List.filter_map
            (fun (vb, cb) ->
              if op va vb then Some (Bdd.and_ env.bman ca cb) else None)
            gb)
        ga
    in
    Bdd.disj env.bman hits
  in
  let int_cmp ~pos ~what cmp a b =
    let as_int ~pos v =
      match v with
      | Kripke.I i -> i
      | Kripke.B _ | Kripke.S _ ->
        err ~pos "%s requires integer operands" what
    in
    compare_values ~pos ~what
      (fun va vb -> cmp (as_int ~pos va) (as_int ~pos vb))
      a b
  in
  match e.Ast.desc with
  | Ast.Etrue -> Bdd.one env.bman
  | Ast.Efalse -> Bdd.zero env.bman
  | Ast.Enot a -> Bdd.not_ env.bman (recur a)
  | Ast.Eand (a, b) -> Bdd.and_ env.bman (recur a) (recur b)
  | Ast.Eor (a, b) -> Bdd.or_ env.bman (recur a) (recur b)
  | Ast.Eimp (a, b) -> Bdd.imp env.bman (recur a) (recur b)
  | Ast.Eiff (a, b) -> Bdd.iff env.bman (recur a) (recur b)
  | Ast.Eeq (a, b) -> compare_values ~pos:e.Ast.pos ~what:"=" ( = ) a b
  | Ast.Eneq (a, b) ->
    Bdd.not_ env.bman (compare_values ~pos:e.Ast.pos ~what:"!=" ( = ) a b)
  | Ast.Ein (a, b) ->
    let members =
      match b.Ast.desc with Ast.Eset elems -> elems | _ -> [ b ]
    in
    Bdd.disj env.bman
      (List.map
         (fun elem ->
           compare_values ~pos:e.Ast.pos ~what:"in" ( = ) a elem)
         members)
  | Ast.Elt (a, b) -> int_cmp ~pos:e.Ast.pos ~what:"<" ( < ) a b
  | Ast.Ele (a, b) -> int_cmp ~pos:e.Ast.pos ~what:"<=" ( <= ) a b
  | Ast.Egt (a, b) -> int_cmp ~pos:e.Ast.pos ~what:">" ( > ) a b
  | Ast.Ege (a, b) -> int_cmp ~pos:e.Ast.pos ~what:">=" ( >= ) a b
  | Ast.Eident _ | Ast.Enext _ | Ast.Eint _ | Ast.Ecase _
  | Ast.Eadd _ | Ast.Esub _ | Ast.Emod _ -> (
    let pairs = guarded env ~primed ~allow_next e in
    (* A deterministic value used as a boolean must be boolean-kinded. *)
    let trues =
      List.filter_map
        (fun (v, cond) ->
          match v with
          | Kripke.B true -> Some cond
          | Kripke.B false -> None
          | Kripke.S _ | Kripke.I _ ->
            err ~pos:e.Ast.pos "expected a boolean expression")
        pairs
    in
    Bdd.disj env.bman trues)
  | Ast.Eset _ ->
    err ~pos:e.Ast.pos "a set cannot be used as a boolean expression"
  | Ast.Eex _ | Ast.Eef _ | Ast.Eeg _ | Ast.Eax _ | Ast.Eaf _ | Ast.Eag _
  | Ast.Eeu _ | Ast.Eau _ ->
    err ~pos:e.Ast.pos "a temporal operator is only allowed in SPEC"

(* Relation "target(copy) = e": handles nondeterministic sets and case
   expressions with set-valued branches.  [guard] is the context
   condition accumulated from enclosing case branches: values outside
   the target's domain are only an error when they can actually occur
   under it. *)
let rec assign_relation env ~guard ~target ~target_primed ~rhs_primed
    (e : Ast.expr) =
  let self = assign_relation env ~guard ~target ~target_primed ~rhs_primed in
  match e.Ast.desc with
  | Ast.Eset elems -> Bdd.disj env.bman (List.map self elems)
  | Ast.Ecase branches ->
    let rec flatten not_prior = function
      | [] -> Bdd.zero env.bman
      | (g, value) :: rest ->
        let gset = as_bool env ~primed:rhs_primed ~allow_next:false g in
        let here = Bdd.and_ env.bman not_prior gset in
        let guard = Bdd.and_ env.bman guard here in
        Bdd.or_ env.bman
          (Bdd.and_ env.bman here
             (assign_relation env ~guard ~target ~target_primed ~rhs_primed
                value))
          (flatten (Bdd.and_ env.bman not_prior (Bdd.not_ env.bman gset)) rest)
    in
    flatten (Bdd.one env.bman) branches
  | Ast.Etrue | Ast.Efalse | Ast.Eint _ | Ast.Eident _ | Ast.Enext _
  | Ast.Enot _ | Ast.Eand _ | Ast.Eor _ | Ast.Eimp _ | Ast.Eiff _ | Ast.Eeq _
  | Ast.Eneq _ | Ast.Elt _ | Ast.Ele _ | Ast.Egt _ | Ast.Ege _ | Ast.Eadd _
  | Ast.Esub _ | Ast.Emod _ | Ast.Ein _ ->
    let pairs = guarded env ~primed:rhs_primed ~allow_next:false e in
    let dom = domain target in
    let write value =
      if target_primed then Kripke.Builder.is' env.builder target value
      else Kripke.Builder.is env.builder target value
    in
    let hits =
      List.filter_map
        (fun (v, cond) ->
          if List.mem v dom then Some (Bdd.and_ env.bman cond (write v))
          else if Bdd.is_zero (Bdd.and_ env.bman guard cond) then None
          else
            err ~pos:e.Ast.pos "value %s outside the domain of %s"
              (Kripke.string_of_value v) target.Kripke.var_name)
        pairs
    in
    Bdd.disj env.bman hits
  | Ast.Eex _ | Ast.Eef _ | Ast.Eeg _ | Ast.Eax _ | Ast.Eaf _ | Ast.Eag _
  | Ast.Eeu _ | Ast.Eau _ ->
    err ~pos:e.Ast.pos "a temporal operator is only allowed in SPEC"

(* SPEC expressions to CTL: temporal and boolean structure is kept,
   propositional leaves become Pred state sets. *)
let rec to_ctl env (e : Ast.expr) =
  let leaf () = Ctl.Pred (as_bool env ~primed:false ~allow_next:false e) in
  match e.Ast.desc with
  | Ast.Enot a -> Ctl.Not (to_ctl env a)
  | Ast.Eand (a, b) -> Ctl.And (to_ctl env a, to_ctl env b)
  | Ast.Eor (a, b) -> Ctl.Or (to_ctl env a, to_ctl env b)
  | Ast.Eimp (a, b) -> Ctl.Imp (to_ctl env a, to_ctl env b)
  | Ast.Eiff (a, b) -> Ctl.Iff (to_ctl env a, to_ctl env b)
  | Ast.Eex a -> Ctl.EX (to_ctl env a)
  | Ast.Eef a -> Ctl.EF (to_ctl env a)
  | Ast.Eeg a -> Ctl.EG (to_ctl env a)
  | Ast.Eax a -> Ctl.AX (to_ctl env a)
  | Ast.Eaf a -> Ctl.AF (to_ctl env a)
  | Ast.Eag a -> Ctl.AG (to_ctl env a)
  | Ast.Eeu (a, b) -> Ctl.EU (to_ctl env a, to_ctl env b)
  | Ast.Eau (a, b) -> Ctl.AU (to_ctl env a, to_ctl env b)
  | Ast.Etrue -> Ctl.True
  | Ast.Efalse -> Ctl.False
  | Ast.Eint _ | Ast.Eident _ | Ast.Enext _ | Ast.Eeq _ | Ast.Eneq _
  | Ast.Elt _ | Ast.Ele _ | Ast.Egt _ | Ast.Ege _ | Ast.Eset _ | Ast.Ecase _
  | Ast.Eadd _ | Ast.Esub _ | Ast.Emod _ | Ast.Ein _ ->
    leaf ()

let declare_vars env decls =
  List.iter
    (function
      | Ast.Dvar entries ->
        List.iter
          (fun (name, dtype) ->
            if Hashtbl.mem env.vars name then
              err "duplicate variable %s" name;
            if Hashtbl.mem env.consts name then
              err "variable %s collides with an enumeration constant" name;
            let v =
              match dtype with
              | Ast.Tbool -> Kripke.Builder.bool_var env.builder name
              | Ast.Tenum consts ->
                List.iter
                  (fun c ->
                    if Hashtbl.mem env.vars c then
                      err "enumeration constant %s collides with a variable" c)
                  consts;
                List.iter (fun c -> Hashtbl.replace env.consts c ()) consts;
                Kripke.Builder.enum_var env.builder name consts
              | Ast.Trange (lo, hi) ->
                if lo > hi then err "empty range for %s" name;
                Kripke.Builder.range_var env.builder name lo hi
              | Ast.Tinstance (mod_name, _) | Ast.Tprocess (mod_name, _) ->
                (* flattening eliminates instances *)
                err "unexpanded module instance %s (internal)" mod_name
            in
            Hashtbl.replace env.vars name v)
          entries
      | Ast.Dassign _ | Ast.Dinit _ | Ast.Dtrans _ | Ast.Dinvar _
      | Ast.Dfairness _ | Ast.Ddefine _ | Ast.Dspec _ ->
        ())
    decls

let declare_defines env decls =
  List.iter
    (function
      | Ast.Ddefine entries ->
        List.iter
          (fun (name, body, pos) ->
            if
              Hashtbl.mem env.vars name
              || Hashtbl.mem env.consts name
              || Hashtbl.mem env.defines name
            then err ~pos "DEFINE %s collides with an existing name" name;
            Hashtbl.replace env.defines name body)
          entries
      | Ast.Dvar _ | Ast.Dassign _ | Ast.Dinit _ | Ast.Dtrans _
      | Ast.Dinvar _ | Ast.Dfairness _ | Ast.Dspec _ ->
        ())
    decls

(* ------------------------------------------------------------------ *)
(* The variable order: a dependency-graph proximity heuristic.
   Every constraint (assignment, TRANS, INVAR, INIT, FAIRNESS) yields
   the set of model variables it mentions (DEFINEs expanded); variables
   co-occurring in small constraints attract each other with weight
   1/(k-1) for a k-variable set, and a greedy max-adjacency placement
   turns the weighted graph into an order.  Interleaving of each
   variable's current/next bit pairs is [Kripke.Builder.seed_order]'s
   job; this chooses only the relative order of the model variables. *)

let expr_var_names env (e : Ast.expr) =
  let hits = Hashtbl.create 8 in
  let expanding = Hashtbl.create 8 in
  let rec go (e : Ast.expr) =
    match e.Ast.desc with
    | Ast.Eident name -> (
      if Hashtbl.mem env.vars name then Hashtbl.replace hits name ()
      else
        match Hashtbl.find_opt env.defines name with
        | Some body ->
          if not (Hashtbl.mem expanding name) then begin
            Hashtbl.replace expanding name ();
            go body
          end
        | None -> ())
    | Ast.Etrue | Ast.Efalse | Ast.Eint _ -> ()
    | Ast.Enext a | Ast.Enot a
    | Ast.Eex a | Ast.Eef a | Ast.Eeg a
    | Ast.Eax a | Ast.Eaf a | Ast.Eag a ->
      go a
    | Ast.Eand (a, b) | Ast.Eor (a, b) | Ast.Eimp (a, b) | Ast.Eiff (a, b)
    | Ast.Eeq (a, b) | Ast.Eneq (a, b) | Ast.Elt (a, b) | Ast.Ele (a, b)
    | Ast.Egt (a, b) | Ast.Ege (a, b) | Ast.Ein (a, b)
    | Ast.Eadd (a, b) | Ast.Esub (a, b) | Ast.Emod (a, b)
    | Ast.Eeu (a, b) | Ast.Eau (a, b) ->
      go a;
      go b
    | Ast.Ecase branches ->
      List.iter
        (fun (g, v) ->
          go g;
          go v)
        branches
    | Ast.Eset elems -> List.iter go elems
  in
  go e;
  Hashtbl.fold (fun name () acc -> name :: acc) hits []

(* Variable sets contributing proximity, one per constraint. *)
let proximity_sets env decls =
  let sets = ref [] in
  let add_expr ?with_target e =
    let names = expr_var_names env e in
    let names =
      match with_target with
      | Some t when not (List.mem t names) -> t :: names
      | Some _ | None -> names
    in
    if List.length names >= 2 then sets := names :: !sets
  in
  List.iter
    (function
      | Ast.Dassign assigns ->
        List.iter
          (fun (_kind, name, rhs, _pos) -> add_expr ~with_target:name rhs)
          assigns
      | Ast.Dinit e | Ast.Dtrans e | Ast.Dinvar e | Ast.Dfairness e ->
        add_expr e
      | Ast.Dvar _ | Ast.Ddefine _ | Ast.Dspec _ -> ())
    decls;
  !sets

(* Greedy max-adjacency placement over the declared variables
   (declaration order breaks every tie, so the heuristic is
   deterministic and degrades to declaration order on an empty
   dependency graph). *)
let proximity_order env decls =
  let declared =
    Hashtbl.fold (fun _ v acc -> v :: acc) env.vars []
    |> List.sort (fun a b ->
           Stdlib.compare a.Kripke.bits.(0) b.Kripke.bits.(0))
  in
  let n = List.length declared in
  if n <= 2 then declared
  else begin
    let names = Array.of_list (List.map (fun v -> v.Kripke.var_name) declared) in
    let index = Hashtbl.create n in
    Array.iteri (fun i name -> Hashtbl.replace index name i) names;
    let adj = Array.make_matrix n n 0.0 in
    List.iter
      (fun set ->
        let is =
          List.filter_map (Hashtbl.find_opt index) set
          |> List.sort_uniq Stdlib.compare
        in
        let k = List.length is in
        (* Huge constraints say little about proximity; skip them. *)
        if k >= 2 && k <= 20 then begin
          let w = 1.0 /. float_of_int (k - 1) in
          List.iter
            (fun i ->
              List.iter
                (fun j ->
                  if i <> j then adj.(i).(j) <- adj.(i).(j) +. w)
                is)
            is
        end)
      (proximity_sets env decls);
    let placed = Array.make n false in
    (* Attraction of each unplaced variable to the placed prefix,
       maintained incrementally. *)
    let pull = Array.make n 0.0 in
    let totals =
      Array.init n (fun i -> Array.fold_left ( +. ) 0.0 adj.(i))
    in
    let best score =
      let bi = ref (-1) in
      for i = n - 1 downto 0 do
        if not placed.(i) && (!bi < 0 || score i >= score !bi -. 1e-12) then
          bi := i
      done;
      !bi
    in
    let order = ref [] in
    let place i =
      placed.(i) <- true;
      order := i :: !order;
      for j = 0 to n - 1 do
        if not placed.(j) then pull.(j) <- pull.(j) +. adj.(i).(j)
      done
    in
    place (best (fun i -> totals.(i)));
    for _ = 2 to n do
      place (best (fun i -> pull.(i)))
    done;
    List.rev_map (fun i -> List.nth declared i) !order
  end

(* The name of the scheduler variable of process semantics, and the
   enumeration constant naming a unit. *)
let selector = "_process"

let unit_const (u : Flatten.unit_decls) =
  if String.equal u.Flatten.upath "" then "main" else u.Flatten.upath

let running_name (u : Flatten.unit_decls) =
  if String.equal u.Flatten.upath "" then "running"
  else u.Flatten.upath ^ ".running"

let compile ?partitioned:_ ?static_order:_ (program : Ast.program) =
  let units = Flatten.flatten_units program in
  let with_processes = List.length units > 1 in
  let decls = List.concat_map (fun u -> u.Flatten.udecls) units in
  let builder = Kripke.Builder.create () in
  let env =
    {
      builder;
      bman = Kripke.Builder.man builder;
      vars = Hashtbl.create 16;
      consts = Hashtbl.create 16;
      defines = Hashtbl.create 16;
      expanding = Hashtbl.create 8;
    }
  in
  (* With process instances, a scheduler variable records which unit
     runs; [<path>.running] defines expand to selector tests. *)
  let no_pos = { Ast.line = 0; col = 0 } in
  if with_processes then begin
    let consts = List.map unit_const units in
    let v = Kripke.Builder.enum_var builder selector consts in
    Hashtbl.replace env.vars selector v;
    List.iter (fun c -> Hashtbl.replace env.consts c ()) consts;
    List.iter
      (fun u ->
        Hashtbl.replace env.defines (running_name u)
          {
            Ast.desc =
              Ast.Eeq
                ( { Ast.desc = Ast.Eident selector; pos = no_pos },
                  { Ast.desc = Ast.Eident (unit_const u); pos = no_pos } );
            pos = no_pos;
          })
      units
  end;
  declare_vars env decls;
  declare_defines env decls;
  (* All variables and macros are known and no constraint has built a
     BDD yet: the manager is still empty, so seeding the proximity
     order is a free permutation install. *)
  Kripke.Builder.seed_order builder (proximity_order env decls);
  let assigned : (string * Ast.assign_kind, Ast.pos) Hashtbl.t =
    Hashtbl.create 16
  in
  let add_invariant f =
    (* holds in every state: restrict the state space itself *)
    Kripke.Builder.add_space builder f
  in
  let specs = ref [] in
  (* Per-unit transition contributions and variable ownership (the
     unit whose text next-assigns the variable). *)
  let nunits = List.length units in
  let unit_rels = Array.make (max 1 nunits) [] in
  let owner : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let add_unit_trans ui rel =
    if with_processes then unit_rels.(ui) <- rel :: unit_rels.(ui)
    else Kripke.Builder.add_trans builder rel
  in
  let do_assign ui (kind, name, rhs, pos) =
    if Hashtbl.mem env.defines name then
      err ~pos "cannot assign to DEFINE %s" name;
    let target = find_var env pos name in
    (match kind with
    | Ast.Acurrent ->
      if
        Hashtbl.mem assigned (name, Ast.Ainit)
        || Hashtbl.mem assigned (name, Ast.Anext)
        || Hashtbl.mem assigned (name, Ast.Acurrent)
      then err ~pos "conflicting assignments to %s" name
    | Ast.Ainit | Ast.Anext ->
      if
        Hashtbl.mem assigned (name, kind)
        || Hashtbl.mem assigned (name, Ast.Acurrent)
      then err ~pos "conflicting assignments to %s" name);
    Hashtbl.replace assigned (name, kind) pos;
    match kind with
    | Ast.Ainit ->
      Kripke.Builder.add_init builder
        (assign_relation env ~guard:(Bdd.one env.bman) ~target
           ~target_primed:false ~rhs_primed:false rhs)
    | Ast.Anext ->
      Hashtbl.replace owner name ui;
      add_unit_trans ui
        (assign_relation env ~guard:(Bdd.one env.bman) ~target
           ~target_primed:true ~rhs_primed:false rhs)
    | Ast.Acurrent ->
      add_invariant
        (assign_relation env ~guard:(Bdd.one env.bman) ~target
           ~target_primed:false ~rhs_primed:false rhs)
  in
  List.iteri
    (fun ui u ->
      List.iter
        (function
          | Ast.Dvar _ -> ()
          | Ast.Dassign assigns -> List.iter (do_assign ui) assigns
          | Ast.Dinit e ->
            Kripke.Builder.add_init builder
              (as_bool env ~primed:false ~allow_next:false e)
          | Ast.Dtrans e ->
            add_unit_trans ui (as_bool env ~primed:false ~allow_next:true e)
          | Ast.Dinvar e ->
            add_invariant (as_bool env ~primed:false ~allow_next:false e)
          | Ast.Ddefine _ -> ()
          | Ast.Dfairness e ->
            Kripke.Builder.add_fairness builder
              (as_bool env ~primed:false ~allow_next:false e)
          | Ast.Dspec e ->
            specs := (Ast.expr_to_string e, to_ctl env e) :: !specs)
        u.Flatten.udecls)
    units;
  (* Process semantics: at each step the selected unit's relations
     apply while the variables owned by the other units stay frozen. *)
  if with_processes then
    List.iteri
      (fun ui u ->
        let selected =
          Kripke.Builder.is builder
            (Hashtbl.find env.vars selector)
            (Kripke.S (unit_const u))
        in
        let frozen =
          Hashtbl.fold
            (fun name owner_ui acc ->
              if owner_ui <> ui then
                Kripke.Builder.unchanged builder (Hashtbl.find env.vars name)
                :: acc
              else acc)
            owner []
        in
        Kripke.Builder.add_trans_case builder
          (Bdd.conj env.bman ((selected :: frozen) @ unit_rels.(ui))))
      units;
  Kripke.Builder.label_all_bools builder;
  let model = Kripke.Builder.build builder in
  let compiled =
    {
      model;
      specs = List.rev !specs;
      defines = Hashtbl.fold (fun k v acc -> (k, v) :: acc) env.defines [];
      clusters = Kripke.Builder.clusters builder;
    }
  in
  (* The compiled artifact outlives any single check: a warm server
     keeps it across requests, and recovery ladders run [Bdd.gc]
     between attempts.  Its embedded diagrams — the Pred state sets
     inside the spec formulas and the partition clusters — are not
     reachable from the model's own roots, so register them here for
     the artifact's lifetime; otherwise a gc would sweep them and any
     later use of the compiled specs would dangle. *)
  let spec_preds =
    List.concat_map (fun (_, spec) -> Ctl.preds spec) compiled.specs
  in
  ignore
    (Bdd.add_root model.Kripke.man (fun () -> spec_preds @ compiled.clusters)
      : Bdd.root);
  compiled

let compile_expr compiled source =
  (* Rebuild a read-only environment over the existing model: variable
     reads go through the model's variable table. *)
  let m = compiled.model in
  let builder = Kripke.Builder.create ~man:m.Kripke.man () in
  let env =
    {
      builder;
      bman = m.Kripke.man;
      vars = Hashtbl.create 16;
      consts = Hashtbl.create 16;
      defines = Hashtbl.create 16;
      expanding = Hashtbl.create 8;
    }
  in
  Array.iter
    (fun (v : Kripke.var) ->
      Hashtbl.replace env.vars v.Kripke.var_name v;
      match v.Kripke.vtype with
      | Kripke.Enum consts ->
        List.iter (fun c -> Hashtbl.replace env.consts c ()) consts
      | Kripke.Bool | Kripke.Range _ -> ())
    m.Kripke.vars;
  List.iter
    (fun (name, body) -> Hashtbl.replace env.defines name body)
    compiled.defines;
  to_ctl env (Parser.expression source)
