exception Cannot_explain of string

type ('set, 'state) ops = {
  sat : Ctl.t -> 'set;
  mem : 'set -> 'state -> bool;
  fair : 'set -> 'set;
  ex : f:'set -> start:'state -> 'state list;
  eu : f:'set -> g:'set -> start:'state -> 'state list;
  eg : f:'set -> start:'state -> 'state list * 'state list;
}

(* Does the formula contain a temporal operator reachable through the
   boolean skeleton only (i.e. one a path explanation can exhibit)?
   Negated temporal operators are opaque: a single path cannot refute a
   path quantifier. *)
let rec is_temporal = function
  | Ctl.EX _ | Ctl.EU _ | Ctl.EG _ -> true
  | Ctl.And (a, b) | Ctl.Or (a, b) -> is_temporal a || is_temporal b
  | Ctl.True | Ctl.False | Ctl.Atom _ | Ctl.Pred _ | Ctl.Not _
    ->
    false
  | Ctl.Imp _ | Ctl.Iff _ | Ctl.EF _ | Ctl.AX _ | Ctl.AF _
  | Ctl.AG _ | Ctl.AU _ ->
    (* explain works on push_neg-normalised formulas *)
    assert false

let explain_with ops formula ~start =
  let holds_at f st = ops.mem (ops.sat f) st in
  let rec go f st =
    if not (holds_at f st) then
      raise
        (Cannot_explain
           (Printf.sprintf "formula %s does not hold at the start state"
              (Ctl.to_string f)));
    match f with
    | Ctl.True | Ctl.False | Ctl.Atom _ | Ctl.Pred _
    | Ctl.Not _ ->
      ([ st ], [])
    | Ctl.And (a, b) ->
      if is_temporal a then go a st
      else if is_temporal b then go b st
      else ([ st ], [])
    | Ctl.Or (a, b) -> if holds_at a st then go a st else go b st
    | Ctl.EX a -> continue (ops.ex ~f:(ops.fair (ops.sat a)) ~start:st) a
    | Ctl.EU (a, b) ->
      let target = ops.fair (ops.sat b) in
      continue (ops.eu ~f:(ops.sat a) ~g:target ~start:st) b
    | Ctl.EG a -> ops.eg ~f:(ops.sat a) ~start:st
    | Ctl.Imp _ | Ctl.Iff _ | Ctl.EF _ | Ctl.AX _ | Ctl.AF _
    | Ctl.AG _ | Ctl.AU _ ->
      assert false
  (* Extend a finite path by explaining [f] at its final state (only
     when [f] still has something to show).  The junction state is not
     duplicated; when the continuation is a pure cycle beginning there,
     it stays only in the cycle. *)
  and continue path f =
    if not (is_temporal f) then (path, [])
    else
      match List.rev path with
      | [] -> assert false
      | last :: rev_init -> (
        match go f last with
        | _junction :: rest, cycle -> (path @ rest, cycle)
        | [], cycle -> (List.rev rev_init, cycle))
  in
  go (Ctl.push_neg formula) start

let explain ?limits m formula ~start =
  let bman = m.Kripke.man in
  let fair = Ctl.Fair.fair_states ?limits m in
  let ops =
    {
      sat = Ctl.Fair.sat ?limits m;
      mem = Kripke.eval_in_state m;
      fair = (fun set -> Bdd.and_ bman set fair);
      ex = (fun ~f ~start -> (Witness.ex ?limits m ~f ~start).prefix);
      eu = (fun ~f ~g ~start -> (Witness.eu ?limits m ~f ~g ~start).prefix);
      eg =
        (fun ~f ~start ->
          let tr = Witness.eg ?limits m ~f ~start in
          (tr.prefix, tr.cycle));
    }
  in
  let prefix, cycle = explain_with ops formula ~start in
  { Kripke.Trace.prefix; cycle }

(* [?engine] is ignored on [witness] and [counterexample]: kept only
   because perfbench/probe.ml passes it. *)
let witness ?limits ?engine:_ m formula =
  let sat = Ctl.Fair.sat ?limits m formula in
  let good = Bdd.and_ m.Kripke.man m.Kripke.init sat in
  match Kripke.pick_state m good with
  | None -> None
  | Some st -> Some (explain ?limits m formula ~start:st)

let counterexample ?limits ?engine:_ m formula =
  let sat = Ctl.Fair.sat ?limits m formula in
  let bad = Bdd.diff m.Kripke.man m.Kripke.init sat in
  match Kripke.pick_state m bad with
  | None -> None
  | Some st -> Some (explain ?limits m (Ctl.Not formula) ~start:st)
