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

(* The fixpoint memo of one model: the fair set of every formula [sat]
   is asked for (keyed by the formula; [Bdd.t] is a plain handle, so
   structural hashing is sound), the rings of every [EU] and the hull
   of every fair [EG] its traversals meet, with the rings of its last
   outer iteration (keyed by their operand sets, which is how the
   witness primitives ask for them), and every fair-[EG] lasso built
   from a hull (keyed by its operand and start state).  An [EU]'s set
   is the last of its rings — [eu_rings] is the sweep [Ctl.Fair.eu_with]
   runs — so no fixpoint runs twice while the memo lives, and diagrams
   being canonical, every set is the very [Bdd.t] [Ctl.Fair.sat]
   returns.  [layers] counts the ring layers held, so {!size} is two
   field reads. *)
type memo = {
  model : Kripke.t;
  sets : (Ctl.t, Bdd.t) Hashtbl.t;
  rings : (Bdd.t * Bdd.t, Bdd.t array) Hashtbl.t;
  hulls : (Bdd.t, Bdd.t * Ctl.Fair.rings list) Hashtbl.t;
  lassos : (Bdd.t * Kripke.state, Kripke.state list * Kripke.state list) Hashtbl.t;
  mutable layers : int;
}

let memo m =
  { model = m; sets = Hashtbl.create 16; rings = Hashtbl.create 4;
    hulls = Hashtbl.create 4; lassos = Hashtbl.create 4; layers = 0 }

let clear mm =
  Hashtbl.reset mm.sets;
  Hashtbl.reset mm.rings;
  Hashtbl.reset mm.hulls;
  Hashtbl.reset mm.lassos;
  mm.layers <- 0

let size mm = (Hashtbl.length mm.sets, mm.layers)

(* Keys and values alike: a gc that roots these keeps the memo usable,
   since no key's handle can be recycled for another set. *)
let roots mm =
  Hashtbl.fold (fun f s acc -> (s :: Ctl.preds f) @ acc) mm.sets
    (Hashtbl.fold (fun (f, g) r acc -> f :: g :: Array.to_list r @ acc) mm.rings
       (Hashtbl.fold
          (fun f (z, rs) acc ->
            f :: z
            :: List.concat_map (fun r -> Array.to_list r.Ctl.Fair.layers) rs
            @ acc)
          mm.hulls
          (Hashtbl.fold (fun (f, _) _ acc -> f :: acc) mm.lassos [])))

let lookup tbl key compute =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = compute () in
    Hashtbl.replace tbl key v;
    v

(* [Ctl.Fair.sat] through the memo; [fair] is the model's fair
   states. *)
let memo_sat ?limits mm ~fair =
  let m = mm.model in
  let eu _ f g =
    let g = Bdd.and_ m.Kripke.man g fair in
    let r =
      lookup mm.rings (f, g) (fun () ->
          let r = Ctl.Check.eu_rings ?limits m f g in
          mm.layers <- mm.layers + Array.length r;
          r)
    in
    r.(Array.length r - 1)
  in
  let eg _ f =
    fst
      (lookup mm.hulls f (fun () ->
           let ((_, rs) as hull) = Ctl.Fair.eg_rings ?limits m f in
           List.iter
             (fun r -> mm.layers <- mm.layers + Array.length r.Ctl.Fair.layers)
             rs;
           hull))
  in
  fun f ->
    lookup mm.sets f (fun () ->
        Ctl.Check.sat_with ~ex:(Ctl.Fair.ex ?limits) ~eu ~eg m f)

let holds ?limits mm formula =
  let m = mm.model in
  Bdd.with_root m.Kripke.man (fun () -> roots mm) (fun () ->
      let fair = Ctl.Fair.fair_states ?limits m in
      Bdd.subset m.Kripke.man m.Kripke.init (memo_sat ?limits mm ~fair formula))

(* The symbolic ops of one explanation, over [memo] (a fresh one when
   absent), which is rooted while [k] runs. *)
let with_ops ?limits ?memo:given m k =
  let mm =
    match given with
    | None -> memo m
    | Some mm when mm.model == m -> mm
    | Some _ -> invalid_arg "Explain: the memo belongs to another model"
  in
  let bman = m.Kripke.man in
  let fair = Ctl.Fair.fair_states ?limits m in
  let ops =
    {
      sat = memo_sat ?limits mm ~fair;
      mem = Kripke.eval_in_state m;
      fair = (fun set -> Bdd.and_ bman set fair);
      ex = (fun ~f ~start -> (Witness.ex ?limits m ~f ~start).prefix);
      eu =
        (fun ~f ~g ~start ->
          let rings = Hashtbl.find_opt mm.rings (f, g) in
          (Witness.eu ?limits ?rings m ~f ~g ~start).prefix);
      eg =
        (fun ~f ~start ->
          lookup mm.lassos (f, start) (fun () ->
              let hull = Hashtbl.find_opt mm.hulls f in
              let tr = Witness.eg ?limits ?hull m ~f ~start in
              (tr.prefix, tr.cycle)));
    }
  in
  Bdd.with_root bman (fun () -> roots mm) (fun () -> k ops)

let trace_of (prefix, cycle) = { Kripke.Trace.prefix; cycle }

let explain ?limits m formula ~start =
  with_ops ?limits m (fun ops -> trace_of (explain_with ops formula ~start))

(* A trace from the first initial state satisfying [formula] (under
   fair semantics), explaining it there.  [counterexample] explains
   [Not formula], so it picks among the initial states violating the
   formula. *)
let from_init ?limits ?memo m formula =
  with_ops ?limits ?memo m (fun ops ->
      let set = ops.sat (Ctl.push_neg formula) in
      match Kripke.pick_state m (Bdd.and_ m.Kripke.man m.Kripke.init set) with
      | None -> None
      | Some st -> Some (trace_of (explain_with ops formula ~start:st)))

(* [?engine] is ignored on [witness] and [counterexample]: kept only
   because perfbench/probe.ml passes it. *)
let witness ?limits ?engine:_ ?memo m formula =
  from_init ?limits ?memo m formula

let counterexample ?limits ?engine:_ ?memo m formula =
  from_init ?limits ?memo m (Ctl.Not formula)
