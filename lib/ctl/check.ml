exception Unknown_atom of string

(* Observability counters: global (per-process, not per-model), updated
   by every fixpoint below and snapshotted by [fixpoint_stats].
   Atomic, because parallel spec checking runs these fixpoints from
   several domains at once and a merged stats report must not lose
   increments (a plain ref would). *)
type fixpoint_stats = {
  eu_iterations : int;
  eg_iterations : int;
  ring_layers : int;
}

let eu_iters = Atomic.make 0
let eg_iters = Atomic.make 0
let rings_built = Atomic.make 0

let fixpoint_stats () =
  {
    eu_iterations = Atomic.get eu_iters;
    eg_iterations = Atomic.get eg_iters;
    ring_layers = Atomic.get rings_built;
  }

let reset_fixpoint_stats () =
  Atomic.set eu_iters 0;
  Atomic.set eg_iters 0;
  Atomic.set rings_built 0

(* Charge one fixpoint iteration against the optional resource limits
   (shared by every fixpoint loop below). *)
let tick (m : Kripke.t) limits =
  match limits with
  | None -> ()
  | Some l -> Bdd.Limits.step m.Kripke.man l

let ex (m : Kripke.t) s = Kripke.pre m s

let eu ?limits (m : Kripke.t) f g =
  let bman = m.Kripke.man in
  let frontier = ref g in
  Bdd.with_root bman
    (fun () -> [ f; g; !frontier ])
    (fun () ->
      let rec go q =
        Atomic.incr eu_iters;
        tick m limits;
        let q' = Bdd.or_ bman q (Bdd.and_ bman f (ex m q)) in
        if Bdd.equal q q' then q
        else begin
          frontier := q';
          go q'
        end
      in
      go g)

let eu_rings ?limits (m : Kripke.t) f g =
  let bman = m.Kripke.man in
  let layers = ref [ g ] in
  Bdd.with_root bman
    (fun () -> f :: !layers)
    (fun () ->
      let rec go acc q =
        Atomic.incr eu_iters;
        tick m limits;
        let q' = Bdd.or_ bman q (Bdd.and_ bman f (ex m q)) in
        if Bdd.equal q q' then List.rev acc
        else begin
          layers := q' :: !layers;
          go (q' :: acc) q'
        end
      in
      let rings = Array.of_list (go [ g ] g) in
      ignore (Atomic.fetch_and_add rings_built (Array.length rings) : int);
      rings)

let eg ?limits (m : Kripke.t) f =
  let bman = m.Kripke.man in
  let frontier = ref f in
  Bdd.with_root bman
    (fun () -> [ f; !frontier ])
    (fun () ->
      let rec go z =
        Atomic.incr eg_iters;
        tick m limits;
        let z' = Bdd.and_ bman z (Bdd.and_ bman f (ex m z)) in
        if Bdd.equal z z' then z
        else begin
          frontier := z';
          go z'
        end
      in
      go (Bdd.and_ bman f m.Kripke.space))

(* Interpret a formula with the three basic operators supplied, so that
   the plain and fair checkers share one traversal. *)
let sat_with ~ex ~eu ~eg (m : Kripke.t) formula =
  let bman = m.Kripke.man in
  let space = m.Kripke.space in
  let atom_set name =
    match Kripke.label m name with
    | set -> Bdd.and_ bman set space
    | exception Not_found -> raise (Unknown_atom name)
  in
  (* Root every subformula's satisfaction set for the duration of the
     traversal: an earlier result held only in this recursion's frames
     must survive a gc or sifting sweep (both reclaim unrooted
     diagrams) run while a sibling subtree is being evaluated. *)
  let keep = ref [] in
  Bdd.with_root bman
    (fun () -> !keep)
    (fun () ->
      let rec go f =
        let r =
          match f with
          | Syntax.True -> space
          | Syntax.False -> Bdd.zero bman
          | Syntax.Atom name -> atom_set name
          | Syntax.Pred set -> Bdd.and_ bman set space
          | Syntax.Not f -> Bdd.diff bman space (go f)
          | Syntax.And (a, b) ->
            let sa = go a in
            Bdd.and_ bman sa (go b)
          | Syntax.Or (a, b) ->
            let sa = go a in
            Bdd.or_ bman sa (go b)
          | Syntax.EX f -> ex m (go f)
          | Syntax.EU (a, b) ->
            let sa = go a in
            eu m sa (go b)
          | Syntax.EG f -> eg m (go f)
          | (Syntax.Imp _ | Syntax.Iff _ | Syntax.EF _ | Syntax.AX _
            | Syntax.AF _ | Syntax.AG _ | Syntax.AU _) as f ->
            (* [enf] leaves none of these behind. *)
            ignore f;
            assert false
        in
        keep := r :: !keep;
        r
      in
      go (Syntax.enf formula))

let sat ?limits m formula =
  sat_with ~ex ~eu:(eu ?limits) ~eg:(eg ?limits) m formula

let holds ?limits m formula =
  Bdd.subset m.Kripke.man m.Kripke.init (sat ?limits m formula)
