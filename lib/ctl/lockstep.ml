(* Lock-step symbolic fair-cycle detection (Chatterjee-Henzinger-
   Loitzenbauer-Oraee-Toman, arXiv 1804.00206; the lock-step SCC search
   itself is Bloem-Gabow-Somenzi).

   Fair [EG f] asks for states with an [f]-path along which every
   fairness constraint holds infinitely often.  Such a path eventually
   dwells inside one nontrivial SCC of the [f]-subgraph that intersects
   every constraint, so

     fair EG f  =  E[f U hull],   hull = union of those SCCs.

   The SCCs are found by symbolic decomposition: pick a seed state [v],
   grow its forward set [F] and backward set [B] within the current
   region one image per round *in lock step*, and stop growing both as
   soon as either converges — the smaller side bounds the SCC, giving
   the O(n sqrt n) symbolic-step bound instead of the Emerson-Lei
   O(n^2) worst case.  [SCC(v) = F /\ B]; because the converged side is
   closed within the region, no SCC straddles the split, so the two
   remainders recurse independently (an explicit worklist, no stack).
   Regions that miss some fairness constraint cannot contain a fair SCC
   and are dropped without a search.

   The Emerson-Lei engine in [Fair] and this one are verdict-identical
   by construction: both compute the same set of states, and BDDs are
   canonical per manager.  Witness extraction is shared — [Fair]
   re-runs the cheap per-constraint [Check.eu_rings] against the
   converged hull, so onion rings (and everything downstream:
   [Counterex], [--certify]) never see which engine produced the
   fixpoint. *)

type stats = {
  rounds : int;  (** lock-step image rounds (forward+backward pairs and
                     trailing completion sweeps) *)
  sccs_examined : int;  (** SCCs isolated and tested for fairness *)
  sccs_skipped : int;
      (** regions dropped because they miss some fairness constraint *)
}

let rounds_c = Atomic.make 0
let examined_c = Atomic.make 0
let skipped_c = Atomic.make 0

let stats () =
  { rounds = Atomic.get rounds_c;
    sccs_examined = Atomic.get examined_c;
    sccs_skipped = Atomic.get skipped_c }

let reset_stats () =
  Atomic.set rounds_c 0;
  Atomic.set examined_c 0;
  Atomic.set skipped_c 0

(* Mirrors [Fair.constraints]; duplicated to keep the dependency
   pointing Fair -> Lockstep only. *)
let constraints (m : Kripke.t) =
  match m.Kripke.fairness with
  | [] -> [ m.Kripke.space ]
  | hs -> hs

let eg ?limits (m : Kripke.t) f =
  let bman = m.Kripke.man in
  let hs = constraints m in
  let f = Bdd.and_ bman f m.Kripke.space in
  let zero = Bdd.zero bman in
  (* Mutable state of the decomposition, all rooted below so a gc or
     sifting sweep between rounds never reclaims a live
     intermediate. *)
  let hull = ref zero in
  let work = ref [ f ] in
  let fwd = ref zero and bwd = ref zero in
  let ffront = ref zero and bfront = ref zero in
  let region = ref zero in
  Bdd.with_root bman
    (fun () ->
      f :: !hull :: !fwd :: !bwd :: !ffront :: !bfront :: !region
      :: (!work @ hs))
    (fun () ->
      (* Same funnel discipline as the Emerson-Lei loop: every round
         charges one step against the budget (where [--inject step]
         faults also fire). *)
      let poll () =
        match limits with
        | Some l -> Bdd.Limits.step bman l
        | None -> ()
      in
      let round () =
        Atomic.incr rounds_c;
        poll ()
      in
      let post_in s x = Bdd.and_ bman (Kripke.post m x) s in
      let pre_in s x = Bdd.and_ bman (Kripke.pre m x) s in
      let note_scc c =
        Atomic.incr examined_c;
        (* Nontrivial: some edge stays inside [c] (a singleton counts
           only with a self-loop).  [c] is within the [f]-subgraph, so
           any internal edge is an [f]-edge. *)
        let nontrivial =
          not (Bdd.is_zero (Bdd.and_ bman c (Kripke.pre m c)))
        in
        if
          nontrivial
          && List.for_all
               (fun h -> not (Bdd.is_zero (Bdd.and_ bman c h)))
               hs
        then hull := Bdd.or_ bman !hull c
      in
      (* Trim: the greatest subset of [s] closed under both [pre] and
         [post] — every remaining state has a successor and a
         predecessor inside the set.  Dead chains (and with them every
         trivial SCC not strictly between two cycles — e.g. the
         unreachable source states that dominate a model's raw
         encoding space) vanish in bulk, one image per chain layer,
         instead of costing one lock-step search each.  Nontrivial
         SCCs survive whole (each of their states has a successor and
         a predecessor in the SCC itself, so the SCC is a post-fixpoint
         of the trim operator), hence the hull is unchanged. *)
      let trim s =
        region := s;
        let stable = ref false in
        while not !stable do
          round ();
          let nxt = Bdd.and_ bman !region (Kripke.pre m !region) in
          let nxt = Bdd.and_ bman nxt (Kripke.post m nxt) in
          stable := Bdd.equal nxt !region;
          region := nxt
        done;
        !region
      in
      let miss_constraint s =
        List.exists (fun h -> Bdd.is_zero (Bdd.and_ bman s h)) hs
      in
      let decompose s =
        region := s;
        if miss_constraint s then
          (* No fair SCC fits here; drop the whole region unsearched. *)
          Atomic.incr skipped_c
        else begin
          let s = trim s in
          if Bdd.is_zero s then ()
          else if miss_constraint s then Atomic.incr skipped_c
          else begin
          let seed =
            (* Deterministic: [pick_state] takes the least encoding.
               Seeding from the first constraint is complete — every
               fair SCC intersects it, and unfair SCCs isolated on the
               way are rejected by [note_scc]. *)
            let candidates = Bdd.and_ bman s (List.hd hs) in
            match Kripke.pick_state m candidates with
            | Some st -> Kripke.state_to_bdd m st
            | None -> assert false (* nonzero by the skip test *)
          in
          fwd := seed;
          bwd := seed;
          ffront := seed;
          bfront := seed;
          (* Lock step: one forward and one backward image per round,
             until either side has converged within [s]. *)
          while
            (not (Bdd.is_zero !ffront)) && not (Bdd.is_zero !bfront)
          do
            round ();
            ffront := Bdd.diff bman (post_in s !ffront) !fwd;
            fwd := Bdd.or_ bman !fwd !ffront;
            bfront := Bdd.diff bman (pre_in s !bfront) !bwd;
            bwd := Bdd.or_ bman !bwd !bfront
          done;
          if Bdd.is_zero !ffront then begin
            (* [fwd] is the full forward set of the seed within [s]
               (forward-closed, so no SCC straddles it).  Finish the
               backward sweep only until its frontier leaves [fwd]:
               any SCC state both lies in [fwd] and reaches the seed
               through [fwd], so it is collected before this stops. *)
            while not (Bdd.is_zero (Bdd.and_ bman !bfront !fwd)) do
              round ();
              bfront := Bdd.diff bman (pre_in s !bfront) !bwd;
              bwd := Bdd.or_ bman !bwd !bfront
            done;
            let c = Bdd.and_ bman !fwd !bwd in
            note_scc c;
            work := Bdd.diff bman !fwd c :: Bdd.diff bman s !fwd :: !work
          end
          else begin
            (* Symmetric: the backward set converged first. *)
            while not (Bdd.is_zero (Bdd.and_ bman !ffront !bwd)) do
              round ();
              ffront := Bdd.diff bman (post_in s !ffront) !fwd;
              fwd := Bdd.or_ bman !fwd !ffront
            done;
            let c = Bdd.and_ bman !fwd !bwd in
            note_scc c;
            work := Bdd.diff bman !bwd c :: Bdd.diff bman s !bwd :: !work
          end
          end
        end
      in
      let rec drain () =
        match !work with
        | [] -> ()
        | s :: rest ->
          work := rest;
          poll ();
          if not (Bdd.is_zero s) then decompose s;
          drain ()
      in
      drain ();
      if Bdd.is_zero !hull then zero else Check.eu ?limits m f !hull)
