type rings = {
  constr : Bdd.t;
  layers : Bdd.t array;
}

(* Kept only because perfbench/probe.ml names [El] and passes
   [~engine] to [holds]; Emerson-Lei is the only fair-cycle engine. *)
type engine = El

(* Observability counters, process-wide like [Check]'s (and atomic for
   the same reason: several checking domains may increment them at
   once); the nested EU sweeps of the fair fixpoint land in
   [Check.fixpoint_stats]. *)
type fixpoint_stats = {
  outer_iterations : int;
  ring_layers : int;
}

let outer_iters = Atomic.make 0
let rings_saved = Atomic.make 0

let fixpoint_stats () =
  { outer_iterations = Atomic.get outer_iters;
    ring_layers = Atomic.get rings_saved }

let reset_fixpoint_stats () =
  Atomic.set outer_iters 0;
  Atomic.set rings_saved 0

let constraints (m : Kripke.t) =
  match m.Kripke.fairness with
  | [] -> [ m.Kripke.space ]
  | hs -> hs

(* One step of the outer greatest fixpoint:
   z |-> f /\ /\_k EX (E[f U (z /\ h_k)]), each nested EU swept as
   the onion rings the step returns with the new [z].  [scratch] roots
   the fold's running conjunction and the rings swept so far across
   the nested sweeps, so a gc between them cannot reclaim any of them
   (the caller roots [z]). *)
let eg_step ?limits m f hs ~scratch z =
  let bman = m.Kripke.man in
  scratch := [];
  List.fold_left_map
    (fun acc h ->
      let layers = Check.eu_rings ?limits m f (Bdd.and_ bman z h) in
      let reach = layers.(Array.length layers - 1) in
      let acc = Bdd.and_ bman acc (Check.ex m reach) in
      scratch := acc :: Array.to_list layers @ !scratch;
      (acc, { constr = h; layers }))
    f hs

(* The step that confirms convergence sweeps against the converged hull
   itself, so its rings are the ones Section 6's witness descends. *)
let eg_rings ?limits (m : Kripke.t) f =
  let bman = m.Kripke.man in
  let hs = constraints m in
  let f = Bdd.and_ bman f m.Kripke.space in
  let frontier = ref f in
  let scratch = ref [] in
  Bdd.with_root bman
    (fun () -> (f :: !frontier :: hs) @ !scratch)
    (fun () ->
      let rec go z =
        Atomic.incr outer_iters;
        (match limits with
        | Some l -> Bdd.Limits.step bman l
        | None -> ());
        let z', rings = eg_step ?limits m f hs ~scratch z in
        if Bdd.equal z z' then begin
          let kept =
            List.fold_left (fun n r -> n + Array.length r.layers) 0 rings
          in
          ignore (Atomic.fetch_and_add rings_saved kept : int);
          (z, rings)
        end
        else begin
          frontier := z';
          go z'
        end
      in
      go f)

let eg ?limits m f = fst (eg_rings ?limits m f)

(* The fair-states set depends only on (model, fairness), and models
   are checked many formulas at a time, so the fixpoint-over-fixpoints
   is cached on the model itself: [Kripke.with_fairness] resets the
   slot, and [Kripke.roots] keeps the cached diagram alive across gc. *)
let fair_states ?limits (m : Kripke.t) =
  match Kripke.fair_memo m with
  | Some z -> z
  | None ->
    let z = eg ?limits m m.Kripke.space in
    Kripke.set_fair_memo m (Some z);
    z

let ex_with ~fair m f = Check.ex m (Bdd.and_ m.Kripke.man f fair)

let eu_with ?limits ~fair m f g =
  Check.eu ?limits m f (Bdd.and_ m.Kripke.man g fair)

let ex ?limits m f = ex_with ~fair:(fair_states ?limits m) m f

let sat ?limits m formula =
  let fair = fair_states ?limits m in
  Check.sat_with ~ex:(fun m f -> ex_with ~fair m f)
    ~eu:(fun m f g -> eu_with ?limits ~fair m f g)
    ~eg:(fun m f -> eg ?limits m f)
    m formula

let holds ?limits ?engine:_ m formula =
  Bdd.subset m.Kripke.man m.Kripke.init (sat ?limits m formula)
