exception Cannot_explain of string

type ('set, 'state) ops = {
  sat : Ctl.t -> 'set;
  holds_at : Ctl.t -> 'state -> bool;
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
  let rec go f st =
    if not (ops.holds_at f st) then
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
    | Ctl.Or (a, b) -> if ops.holds_at a st then go a st else go b st
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
   from a hull (keyed by its operand and start state).  An [EU]'s rings
   may be a prefix [Q_0 .. Q_j] of [Ctl.Check.eu_rings]'s sequence:
   each consumer resumes the one sweep only as far as it needs
   ({!resume}).  Every set [sat] returns is a converged last layer, so
   no fixpoint runs twice while the memo lives, and diagrams being
   canonical, every set is the very [Bdd.t] [Ctl.Fair.sat] returns.
   [eus] maps each [EU] formula a verdict or a trace named to the
   operand sets that key its rings, so a repeat evaluates no operand.
   [layers] counts the ring layers held, so {!size} is two field
   reads.  [init_state] is the model's initial state when it has only
   one; it is read off [init] when the memo is made, which builds no
   node and polls no limit. *)
type memo = {
  model : Kripke.t;
  init_state : Kripke.state option;
  sets : (Ctl.t, Bdd.t) Hashtbl.t;
  rings : (Bdd.t * Bdd.t, Ctl.Check.sweep) Hashtbl.t;
  eus : (Ctl.t, Bdd.t * Bdd.t) Hashtbl.t;
  hulls : (Bdd.t, Bdd.t * Ctl.Fair.rings list) Hashtbl.t;
  lassos :
    ( Bdd.t * Kripke.state,
      Kripke.state list * Kripke.state list * Witness.stats )
    Hashtbl.t;
  mutable layers : int;
}

let memo m =
  let init_state =
    if Kripke.count_states m m.Kripke.init <> 1. then None
    else begin
      let st = Array.make m.Kripke.nbits false in
      List.iter
        (fun (v, b) -> if v mod 2 = 0 then st.(v / 2) <- b)
        (Bdd.any_sat m.Kripke.man m.Kripke.init);
      Some st
    end
  in
  { model = m; init_state; sets = Hashtbl.create 16;
    rings = Hashtbl.create 4; eus = Hashtbl.create 4;
    hulls = Hashtbl.create 4; lassos = Hashtbl.create 4; layers = 0 }

let clear mm =
  Hashtbl.reset mm.sets;
  Hashtbl.reset mm.rings;
  Hashtbl.reset mm.eus;
  Hashtbl.reset mm.hulls;
  Hashtbl.reset mm.lassos;
  mm.layers <- 0

let size mm = (Hashtbl.length mm.sets, mm.layers)

let lasso_stats mm = Hashtbl.fold (fun _ (_, _, st) acc -> st :: acc) mm.lassos []

(* Keys and values alike: a gc that roots these keeps the memo usable,
   since no key's handle can be recycled for another set. *)
let roots mm =
  Hashtbl.fold (fun f s acc -> (s :: Ctl.preds f) @ acc) mm.sets
    (Hashtbl.fold
       (fun (f, g) s acc -> f :: g :: Array.to_list s.Ctl.Check.layers @ acc)
       mm.rings
       (Hashtbl.fold
          (fun e (f, g) acc -> (f :: g :: Ctl.preds e) @ acc)
          mm.eus
          (Hashtbl.fold
             (fun f (z, rs) acc ->
               f :: z
               :: List.concat_map (fun r -> Array.to_list r.Ctl.Fair.layers) rs
               @ acc)
             mm.hulls
             (Hashtbl.fold (fun (f, _) _ acc -> f :: acc) mm.lassos []))))

let lookup tbl key compute =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
    let v = compute () in
    Hashtbl.replace tbl key v;
    v

(* Resume the rings of [E[f U g]] ([g] already fair) until [stop]
   holds of their last layer, or to the fixpoint when [stop] is absent
   or never holds: their last layer.  Layers a breach leaves stay. *)
let resume ?limits ?stop mm f g =
  let s =
    lookup mm.rings (f, g) (fun () ->
        mm.layers <- mm.layers + 1;
        Ctl.Check.sweep g)
  in
  let before = Array.length s.layers in
  Fun.protect
    ~finally:(fun () ->
      mm.layers <- mm.layers + Array.length s.layers - before)
    (fun () -> Ctl.Check.eu_resume ?limits ?stop mm.model f s);
  s.layers.(Array.length s.layers - 1)

(* [Ctl.Fair.sat] over the memo's fixpoints; [fair] is the model's
   fair states.  [memo_sat] also keeps the formula's set. *)
let fair_sat ?limits mm ~fair =
  let m = mm.model in
  let eu _ f g = resume ?limits mm f (Bdd.and_ m.Kripke.man g fair) in
  let eg _ f =
    fst
      (lookup mm.hulls f (fun () ->
           let ((_, rs) as hull) = Ctl.Fair.eg_rings ?limits m f in
           List.iter
             (fun r -> mm.layers <- mm.layers + Array.length r.Ctl.Fair.layers)
             rs;
           hull))
  in
  Ctl.Check.sat_with ~ex:(Ctl.Fair.ex ?limits) ~eu ~eg m

let memo_sat ?limits mm ~fair =
  let sat = fair_sat ?limits mm ~fair in
  fun f -> lookup mm.sets f (fun () -> sat f)

(* The last layer of [E[a U b]]'s rings, resumed until [stop] holds of
   it (or to the fixpoint).  The operands' sets are not kept: a trace
   keeps them if it needs them. *)
let eu_until ?limits mm ~fair ~stop a b =
  let f, g =
    lookup mm.eus (Ctl.EU (a, b)) (fun () ->
        let bman = mm.model.Kripke.man in
        let sat = fair_sat ?limits mm ~fair in
        let f = sat a in
        let g = Bdd.with_root bman (fun () -> [ f ]) (fun () -> sat b) in
        (f, Bdd.and_ bman g fair))
  in
  resume ?limits ~stop mm f g

(* An [EU] spec holds once its rings cover the initial states, and a
   spec whose negation is an [EU] (AG, !EF, !EU) fails once they meet
   them.  Only a sweep that does neither runs to its fixpoint, which
   decides the other verdict; the spec's set is then its last layer,
   or the complement of it, and is kept as [memo_sat] keeps it. *)
let holds ?limits mm formula =
  let m = mm.model in
  let bman = m.Kripke.man and init = m.Kripke.init in
  Bdd.with_root bman (fun () -> roots mm) (fun () ->
      let fair = Ctl.Fair.fair_states ?limits m in
      let eu_until = eu_until ?limits mm ~fair in
      (* Asked of every layer, so kept cheap.  A single initial state
         is looked up by walking one path: a meet with [init] costs
         each layer [ite] calls and op-cache entries (15% more [ite]
         calls on perfbench's witness-deep).  Several are met with
         [init], which builds at most a part of it ([Bdd.subset] would
         build each layer's complement). *)
      let covers, meets =
        match mm.init_state with
        | Some s0 ->
          let holds q = Kripke.eval_in_state m q s0 in
          (holds, holds)
        | None ->
          ( (fun q -> Bdd.equal (Bdd.and_ bman q init) init),
            fun q -> not (Bdd.is_zero (Bdd.and_ bman q init)) )
      in
      let keep set = Hashtbl.replace mm.sets formula set in
      match (Ctl.push_neg formula, Ctl.push_neg (Ctl.Not formula)) with
      | Ctl.EU (a, b), _ ->
        let last = eu_until ~stop:covers a b in
        if covers last then true
        else begin
          keep last;
          false
        end
      | _, Ctl.EU (a, b) ->
        let last = eu_until ~stop:meets a b in
        if meets last then false
        else begin
          keep (Bdd.diff bman m.Kripke.space last);
          true
        end
      | _ -> Bdd.subset bman init (memo_sat ?limits mm ~fair formula))

(* The symbolic ops of one explanation, over [memo] (a fresh one when
   absent), which is rooted while [k] runs.  [holds_at] answers an
   [EU] from its rings, resumed only until they hold the state. *)
let with_ops ?limits ?memo:given m k =
  let mm =
    match given with
    | None -> memo m
    | Some mm when mm.model == m -> mm
    | Some _ -> invalid_arg "Explain: the memo belongs to another model"
  in
  let bman = m.Kripke.man in
  let fair = Ctl.Fair.fair_states ?limits m in
  let sat = memo_sat ?limits mm ~fair in
  let ops =
    {
      sat;
      holds_at =
        (fun f st ->
          let holds set = Kripke.eval_in_state m set st in
          match f with
          | Ctl.EU (a, b) ->
            holds (eu_until ?limits mm ~fair ~stop:holds a b)
          | f -> holds (sat f));
      fair = (fun set -> Bdd.and_ bman set fair);
      ex = (fun ~f ~start -> (Witness.ex ?limits m ~f ~start).prefix);
      eu =
        (fun ~f ~g ~start ->
          let rings =
            Option.map
              (fun s -> s.Ctl.Check.layers)
              (Hashtbl.find_opt mm.rings (f, g))
          in
          (Witness.eu ?limits ?rings m ~f ~g ~start).prefix);
      eg =
        (fun ~f ~start ->
          let prefix, cycle, _ =
            lookup mm.lassos (f, start) (fun () ->
                let hull = Hashtbl.find_opt mm.hulls f in
                let tr, st = Witness.eg_stats ?limits ?hull m ~f ~start in
                (tr.prefix, tr.cycle, st))
          in
          (prefix, cycle));
    }
  in
  Bdd.with_root bman (fun () -> roots mm) (fun () -> k ops)

let trace_of (prefix, cycle) = { Kripke.Trace.prefix; cycle }

let explain ?limits m formula ~start =
  with_ops ?limits m (fun ops -> trace_of (explain_with ops formula ~start))

(* A trace from the first initial state satisfying [formula] (under
   fair semantics), explaining it there.  [counterexample] explains
   [Not formula], so it picks among the initial states violating the
   formula.  For an [EU] that is the least initial state as soon as a
   ring holds it: the least of a set that holds the least initial
   state is that state. *)
let from_init ?limits ?memo m formula =
  with_ops ?limits ?memo m (fun ops ->
      let f = Ctl.push_neg formula and init = m.Kripke.init in
      let start =
        match (f, Kripke.pick_state m init) with
        | Ctl.EU _, Some s0 when ops.holds_at f s0 -> Some s0
        | _ -> Kripke.pick_state m (Bdd.and_ m.Kripke.man init (ops.sat f))
      in
      Option.map (fun st -> trace_of (explain_with ops formula ~start:st)) start)

(* [?engine] is ignored on [witness] and [counterexample]: kept only
   because perfbench/probe.ml passes it. *)
let witness ?limits ?engine:_ ?memo m formula =
  from_init ?limits ?memo m formula

let counterexample ?limits ?engine:_ ?memo m formula =
  from_init ?limits ?memo m (Ctl.Not formula)
