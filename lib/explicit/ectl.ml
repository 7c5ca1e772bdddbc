let ex (g : Egraph.t) set =
  Array.init g.nstates (fun v ->
      Array.exists (fun w -> set.(w)) g.succ.(v))

(* Backward closure: lfp Z. g \/ (f /\ EX Z), by worklist. *)
let eu (g : Egraph.t) f target =
  let result = Array.copy target in
  let queue = Queue.create () in
  Array.iteri (fun v b -> if b then Queue.add v queue) target;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun u ->
        if f.(u) && not result.(u) then begin
          result.(u) <- true;
          Queue.add u queue
        end)
      g.pred.(v)
  done;
  result

(* gfp Z. f /\ EX Z: repeatedly delete states that lost all their
   successors inside the candidate set. *)
let eg (g : Egraph.t) f =
  let live = Array.copy f in
  let count = Array.make g.nstates 0 in
  Array.iteri
    (fun v ss ->
      if live.(v) then
        count.(v) <-
          Array.fold_left (fun k w -> if live.(w) then k + 1 else k) 0 ss)
    g.succ;
  let queue = Queue.create () in
  Array.iteri (fun v b -> if b && count.(v) = 0 then Queue.add v queue) live;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    if live.(v) then begin
      live.(v) <- false;
      Array.iter
        (fun u ->
          if live.(u) then begin
            count.(u) <- count.(u) - 1;
            if count.(u) = 0 then Queue.add u queue
          end)
        g.pred.(v)
    end
  done;
  live

(* Fair EG via SCC analysis: keep the subgraph of f-states, find its
   SCCs, call an SCC fair when it contains an internal edge (or a
   self-loop) and intersects every fairness constraint, then close
   backwards through f-states. *)
let fair_eg (g : Egraph.t) f =
  let n = g.nstates in
  (* Subgraph restricted to f. *)
  let edges = ref [] in
  for v = 0 to n - 1 do
    if f.(v) then
      Array.iter (fun w -> if f.(w) then edges := (v, w) :: !edges) g.succ.(v)
  done;
  let sub =
    Egraph.make ~nstates:n ~edges:!edges ~init:[] ~fairness:g.fairness ()
  in
  let comp = Egraph.sccs sub in
  let ncomp = 1 + Array.fold_left max (-1) comp in
  let nontrivial = Array.make ncomp false in
  List.iter
    (fun (v, w) -> if comp.(v) = comp.(w) then nontrivial.(comp.(v)) <- true)
    !edges;
  (* Only components made of f-states count; a state outside f is its
     own (ignored) component in [sub]. *)
  let eligible = Array.make ncomp false in
  for v = 0 to n - 1 do
    if f.(v) then eligible.(comp.(v)) <- true
  done;
  let fair_comp = Array.make ncomp false in
  for c = 0 to ncomp - 1 do
    fair_comp.(c) <- eligible.(c) && nontrivial.(c)
  done;
  List.iter
    (fun h ->
      let hits = Array.make ncomp false in
      for v = 0 to n - 1 do
        if f.(v) && h.(v) then hits.(comp.(v)) <- true
      done;
      for c = 0 to ncomp - 1 do
        fair_comp.(c) <- fair_comp.(c) && hits.(c)
      done)
    g.fairness;
  let seeds = Array.init n (fun v -> f.(v) && fair_comp.(comp.(v))) in
  eu g f seeds

let fair_states (g : Egraph.t) =
  fair_eg g (Array.make g.nstates true)

let mask_and a b = Array.map2 ( && ) a b
let mask_or a b = Array.map2 ( || ) a b
let mask_not a = Array.map not a

let sat_gen ?memo (g : Egraph.t) ~atom ~pred ~fair formula =
  let top = Array.make g.nstates true in
  let fair_mask = match fair with Some mask -> mask | None -> top in
  let rec go f =
    match memo with
    | None -> eval f
    | Some tbl -> (
      match Hashtbl.find_opt tbl f with
      | Some mask -> mask
      | None ->
        let mask = eval f in
        Hashtbl.replace tbl f mask;
        mask)
  and eval = function
    | Ctl.True -> top
    | Ctl.False -> Array.make g.nstates false
    | Ctl.Atom name -> atom name
    | Ctl.Pred p -> (
      match pred with
      | Some resolve -> resolve p
      | None -> invalid_arg "Ectl.sat: Pred has no explicit-state meaning")
    | Ctl.Not f -> mask_not (go f)
    | Ctl.And (a, b) -> mask_and (go a) (go b)
    | Ctl.Or (a, b) -> mask_or (go a) (go b)
    | Ctl.EX f -> ex g (mask_and (go f) fair_mask)
    | Ctl.EU (a, b) -> eu g (go a) (mask_and (go b) fair_mask)
    | Ctl.EG f -> (
      match fair with
      | None -> eg g (go f)
      | Some _ -> fair_eg g (go f))
    | Ctl.Imp _ | Ctl.Iff _ | Ctl.EF _ | Ctl.AX _ | Ctl.AF _ | Ctl.AG _
    | Ctl.AU _ ->
      assert false
  in
  go (Ctl.enf formula)

let sat g ~atom ?pred formula = sat_gen g ~atom ~pred ~fair:None formula

let sat_fair ?fair_states:fair ?memo g ~atom ?pred formula =
  let fair = match fair with Some f -> f | None -> fair_states g in
  sat_gen ?memo g ~atom ~pred ~fair:(Some fair) formula

let holds_with sat_fn g ~atom ?pred formula =
  let result = sat_fn g ~atom ?pred formula in
  List.for_all (fun v -> result.(v)) g.Egraph.init

let holds g ~atom ?pred formula = holds_with sat g ~atom ?pred formula

let holds_fair g ~atom ?pred formula =
  holds_with (sat_fair ?fair_states:None ?memo:None) g ~atom ?pred formula
