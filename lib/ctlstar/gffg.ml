type conjunct = {
  gf : Bdd.t;
  fg : Bdd.t;
}

type resolution = Took_gf | Took_fg

(* gfp Y [ /\_j ((q_j /\ EX Y) \/ EX E[Y U (p_j /\ Y)]) ] *)
let core ?limits (m : Kripke.t) cs =
  let bman = m.Kripke.man in
  let step y =
    List.fold_left
      (fun acc c ->
        let fg_term = Bdd.and_ bman c.fg (Ctl.Check.ex m y) in
        let gf_term =
          Ctl.Check.ex m (Ctl.Check.eu ?limits m y (Bdd.and_ bman c.gf y))
        in
        Bdd.and_ bman acc (Bdd.or_ bman fg_term gf_term))
      m.Kripke.space cs
  in
  let rec go y =
    (match limits with
    | Some l -> Bdd.Limits.step bman l
    | None -> ());
    let y' = Bdd.and_ bman y (step y) in
    if Bdd.equal y y' then y else go y'
  in
  go m.Kripke.space

let check ?limits m cs =
  Ctl.Check.eu ?limits m m.Kripke.space (core ?limits m cs)

(* Push path negations down to state formulas so that classification
   sees the GF/FG shapes. *)
let rec push_path = function
  | Syntax.State s -> Syntax.State s
  | Syntax.PAnd (a, b) -> Syntax.PAnd (push_path a, push_path b)
  | Syntax.POr (a, b) -> Syntax.POr (push_path a, push_path b)
  | Syntax.X p -> Syntax.X (push_path p)
  | Syntax.F p -> Syntax.F (push_path p)
  | Syntax.G p -> Syntax.G (push_path p)
  | Syntax.U (a, b) -> Syntax.U (push_path a, push_path b)
  | Syntax.PNot p -> neg_path p

and neg_path = function
  | Syntax.State s -> Syntax.State (Syntax.Not s)
  | Syntax.PNot p -> push_path p
  | Syntax.PAnd (a, b) -> Syntax.POr (neg_path a, neg_path b)
  | Syntax.POr (a, b) -> Syntax.PAnd (neg_path a, neg_path b)
  | Syntax.X p -> Syntax.X (neg_path p)
  | Syntax.F p -> Syntax.G (neg_path p)
  | Syntax.G p -> Syntax.F (neg_path p)
  | Syntax.U _ as p ->
    raise
      (Syntax.Unsupported
         (Format.asprintf "cannot negate an until: %a" Syntax.pp_path p))

let rec check_state ?limits (m : Kripke.t) formula =
  let bman = m.Kripke.man in
  let space = m.Kripke.space in
  match formula with
  | Syntax.True -> space
  | Syntax.False -> Bdd.zero bman
  | Syntax.Atom name -> (
    match Kripke.label m name with
    | set -> Bdd.and_ bman set space
    | exception Not_found -> raise (Ctl.Check.Unknown_atom name))
  | Syntax.Pred set -> Bdd.and_ bman set space
  | Syntax.Not f -> Bdd.diff bman space (check_state ?limits m f)
  | Syntax.And (a, b) ->
    Bdd.and_ bman (check_state ?limits m a) (check_state ?limits m b)
  | Syntax.Or (a, b) ->
    Bdd.or_ bman (check_state ?limits m a) (check_state ?limits m b)
  | Syntax.E p -> check_exists ?limits m p
  | Syntax.A p ->
    Bdd.diff bman space (check_exists ?limits m (Syntax.PNot p))

and check_exists ?limits m p =
  let bman = m.Kripke.man in
  let disjuncts = Syntax.classify (push_path p) in
  let eval_conjunct (c : Syntax.conjunct) =
    let eval_opt = function
      | None -> Bdd.zero bman
      | Some s -> check_state ?limits m s
    in
    { gf = eval_opt c.Syntax.gf_part; fg = eval_opt c.Syntax.fg_part }
  in
  Bdd.disj bman
    (List.map
       (fun cs -> check ?limits m (List.map eval_conjunct cs))
       disjuncts)

let holds ?limits m formula =
  Bdd.subset m.Kripke.man m.Kripke.init (check_state ?limits m formula)

(* ------------------------------------------------------------------ *)
(* Witnesses: resolve each disjunction, reduce to fair EG.             *)

let resolve ?limits m cs ~start =
  if not (Kripke.eval_in_state m (check ?limits m cs) start) then
    raise
      (Counterex.Witness.No_witness
         "CTL*: start state does not satisfy the formula");
  let bman = m.Kripke.man in
  let zero = Bdd.zero bman in
  let pure_fg c = { gf = zero; fg = c.fg } in
  let pure_gf c = { gf = c.gf; fg = zero } in
  let rec go resolved_rev pending =
    match pending with
    | [] -> List.rev resolved_rev
    | c :: rest ->
      let try_fg =
        (not (Bdd.is_zero c.fg))
        &&
        let candidate =
          List.rev_append
            (List.map snd resolved_rev)
            (pure_fg c :: rest)
        in
        Kripke.eval_in_state m (check ?limits m candidate) start
      in
      if try_fg then go ((Took_fg, pure_fg c) :: resolved_rev) rest
      else go ((Took_gf, pure_gf c) :: resolved_rev) rest
  in
  List.map fst (go [] cs)

let resolved_conjuncts ?limits m cs ~start =
  let choices = resolve ?limits m cs ~start in
  List.map2
    (fun choice c ->
      match choice with
      | Took_fg -> (choice, c.fg)
      | Took_gf -> (choice, c.gf))
    choices cs

let witness_stats ?limits m cs ~start =
  let bman = m.Kripke.man in
  let resolved = resolved_conjuncts ?limits m cs ~start in
  let ps =
    List.filter_map
      (fun (choice, set) ->
        match choice with Took_gf -> Some set | Took_fg -> None)
      resolved
  in
  let qs =
    List.fold_left
      (fun acc (choice, set) ->
        match choice with
        | Took_fg -> Bdd.and_ bman acc set
        | Took_gf -> acc)
      m.Kripke.space resolved
  in
  let m' = Kripke.with_fairness m ps in
  (* The prefix runs into the fair-EG hull, and the lasso descends the
     rings of that same fixpoint. *)
  let hull = Ctl.Fair.eg_rings ?limits m' qs in
  let prefix =
    Counterex.Witness.eu ?limits m ~f:m.Kripke.space ~g:(fst hull) ~start
  in
  let anchor =
    match List.rev (Kripke.Trace.states prefix) with
    | st :: _ -> st
    | [] -> assert false
  in
  let lasso, stats =
    Counterex.Witness.eg_stats ?limits ~hull m' ~f:qs ~start:anchor
  in
  (Kripke.Trace.append prefix lasso, stats)

let witness ?limits m cs ~start = fst (witness_stats ?limits m cs ~start)

let witness_ok m cs tr =
  Counterex.Validate.path_ok m tr = Ok ()
  && Kripke.Trace.is_lasso tr
  && List.for_all
       (fun c ->
         List.exists (Kripke.eval_in_state m c.gf) tr.Kripke.Trace.cycle
         || List.for_all (Kripke.eval_in_state m c.fg) tr.Kripke.Trace.cycle)
       cs
