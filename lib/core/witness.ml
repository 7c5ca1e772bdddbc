exception No_witness of string

type strategy = Restart | Precompute

type stats = {
  restarts : int;
  rounds : int;
  choice_s : float;
  descents_s : float;
  closing_s : float;
}

exception
  Restart_bound_exceeded of {
    restarts : int;
    rounds : int;
    prefix : Kripke.state list;
  }

let in_set m set st = Kripke.eval_in_state m set st

(* Seconds one lasso construction spent in each phase of {!stats}
   (choice, descents, closing), kept by the construction itself. *)
let timed phases i k =
  let t0 = Bdd.now_monotonic () in
  Fun.protect k ~finally:(fun () ->
      phases.(i) <- phases.(i) +. Bdd.now_monotonic () -. t0)

(* Charge one ring-descent segment against the optional resource
   limits (shared by every descent below). *)
let ring_tick (m : Kripke.t) = function
  | None -> ()
  | Some l -> Bdd.Limits.ring_step m.Kripke.man l

let note_progress limits prefix_rev =
  match limits with
  | None -> ()
  | Some l -> Bdd.Limits.note_witness l (List.rev prefix_rev)

let pick m set =
  match Kripke.pick_state m set with
  | Some st -> st
  | None -> raise (No_witness "internal: empty pick")

(* Ring layers are cumulative ([Q_0 ⊆ Q_1 ⊆ ...]), so whether a layer
   meets a set, or holds a state, is monotone in the index: bisection
   finds the least index [i < n] where [p] holds ([n] if none). *)
let least_index n p =
  let rec bisect lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if p mid then bisect lo mid else bisect (mid + 1) hi
  in
  bisect 0 n

(* Smallest ring index whose intersection with [set] is non-empty,
   together with a representative state (the shortest continuation). *)
let min_layer m (layers : Bdd.t array) set =
  let meet i = Bdd.and_ m.Kripke.man layers.(i) set in
  let n = Array.length layers in
  let i = least_index n (fun i -> not (Bdd.is_zero (meet i))) in
  if i = n then None else Some (i, pick m (meet i))

(* Walk from [start], whose least layer is [j0], down to a layer-0
   state; returns the states strictly after [start], in order.  A state
   in [Q_j] but not in [Q_(j-1)] is an [f]-state with a successor in
   [Q_(j-1)] and none in [Q_(j-2)] (else it would lie in [Q_(j-1)]), so
   each step picks a successor in [layers.(j-1)] alone and the picked
   successor's least layer is again [j-1]: a linear descent, one
   {!Kripke.pick_successor} per step. *)
let descend ?limits m layers ~start ~level:j0 =
  let rec go acc st j =
    if j = 0 then List.rev acc
    else begin
      ring_tick m limits;
      match Kripke.pick_successor m st layers.(j - 1) with
      | Some next -> go (next :: acc) next (j - 1)
      | None -> raise (No_witness "internal: ring descent stuck")
    end
  in
  go [] start j0

let level_of m layers st =
  let n = Array.length layers in
  let i = least_index n (fun i -> in_set m layers.(i) st) in
  if i = n then None else Some i

(* ------------------------------------------------------------------ *)
(* EX and EU (no fairness).                                            *)

let ex ?limits m ~f ~start =
  ring_tick m limits;
  match Kripke.pick_successor m start f with
  | Some next -> Kripke.Trace.finite [ start; next ]
  | None -> raise (No_witness "EX: start state has no successor in f")

let eu ?limits ?rings m ~f ~g ~start =
  let rings =
    match rings with
    | Some rings -> rings
    | None -> Ctl.Check.eu_rings ?limits m f g
  in
  match level_of m rings start with
  | None -> raise (No_witness "EU: start state does not satisfy E[f U g]")
  | Some j ->
    Kripke.Trace.finite (start :: descend ?limits m rings ~start ~level:j)

(* ------------------------------------------------------------------ *)
(* Fair EG: the algorithm of Section 6.                                *)

(* One constraint-visiting round from [s].  Returns the round's states
   (strictly after [s], in order) and, on success, the closing path
   (from the first successor of [s'] up to and including [t]).  The
   caller appends and, on failure, restarts from the last state. *)
type round_outcome =
  | Closed of Kripke.state list * Kripke.state list
      (** (round states [t .. s'], closing states [u .. t]) *)
  | Failed of Kripke.state list
      (** round states walked before giving up; restart at their last
          (or at [s] if empty — impossible, rounds always move) *)

let run_round ?limits m ~phases ~strategy ~f ~egf
    ~(rings : Ctl.Fair.rings list) s =
  let exception Early_exit of Kripke.state list in
  (* Precompute strategy: set once [t] is known. *)
  let reach_t = ref None in
  let emit acc st =
    (match !reach_t with
    | Some r when not (in_set m r st) -> raise (Early_exit (st :: acc))
    | Some _ | None -> ());
    st :: acc
  in
  let visit_constraint acc (r : Ctl.Fair.rings) (j, first) =
    timed phases 1 @@ fun () ->
    ring_tick m limits;
    let acc = emit acc first in
    (match (!reach_t, strategy) with
    | None, Precompute ->
      reach_t :=
        Some (Ctl.Check.eu ?limits m egf (Kripke.state_to_bdd m first))
    | None, Restart | Some _, (Restart | Precompute) -> ());
    let rest = descend ?limits m r.Ctl.Fair.layers ~start:first ~level:j in
    let acc = List.fold_left emit acc rest in
    let current = match acc with st :: _ -> st | [] -> assert false in
    (acc, current)
  in
  (* Visit the nearest constraint first: order rings by the distance
     from [s] to their nearest layer containing a successor of [s];
     recomputing the greedy choice before every segment follows the
     paper ("we choose the first fairness constraint that can be
     reached"), so segments re-sort dynamically.  The successors of
     [current] are computed once per choice, and the chosen ring's
     layer and state start its segment. *)
  let rec rounds acc current remaining =
    match remaining with
    | [] -> (acc, current)
    | _ :: _ ->
      let succ = Kripke.successors m current in
      let closer best r =
        let hit =
          timed phases 0 @@ fun () -> min_layer m r.Ctl.Fair.layers succ
        in
        match (hit, best) with
        | None, _ -> best
        | Some (j, _), Some (_, (bj, _)) when j >= bj -> best
        | Some hit, _ -> Some (r, hit)
      in
      match List.fold_left closer None remaining with
      | None -> raise (No_witness "EG: no fairness constraint reachable")
      | Some (best, hit) ->
        let acc, current = visit_constraint acc best hit in
        let remaining' =
          List.filter
            (fun r' ->
              not (Bdd.equal r'.Ctl.Fair.constr best.Ctl.Fair.constr))
            remaining
        in
        rounds acc current remaining'
  in
  match rounds [] s rings with
  | exception Early_exit acc -> Failed (List.rev acc)
  | acc, s' ->
    let round_states = List.rev acc in
    let t = match round_states with t :: _ -> t | [] -> s (* no constraints: impossible, rings non-empty *) in
    (* Close the cycle: a non-trivial path s' -> t through f-states:
       {s'} /\ EX E[f U {t}].  Whether one exists is asked going
       forward first: the cone of succ(s') through f is small, while
       the backward rings of a round that cannot close run to their
       fixpoint.  Only when it exists are the rings built, up to the
       first layer that meets succ(s'): that layer is where the closing
       path starts, and the layers below it are the ones it descends.
       Both sweeps stop at the distance from succ(s') to t, so the
       forward test has already charged the budget one step for each
       backward iteration: the rings are not charged twice (the
       attached limits' deadline and cancellation still poll inside
       every BDD operation). *)
    timed phases 2 @@ fun () ->
    let t_set = Kripke.state_to_bdd m t in
    let succ = Kripke.successors m s' in
    if not (Ctl.Check.reaches ?limits m ~f ~from:succ ~target:t_set) then
      Failed round_states
    else
      let closing_rings = Ctl.Check.eu_rings ~until:succ m f t_set in
      let j = Array.length closing_rings - 1 in
      let meet = Bdd.and_ m.Kripke.man closing_rings.(j) succ in
      match Kripke.pick_state m meet with
      | Some u ->
        let closing = u :: descend ?limits m closing_rings ~start:u ~level:j in
        Closed (round_states, closing)
      | None -> raise (No_witness "internal: closing rings miss succ(s')")

let eg_stats ?limits ?hull ?(strategy = Restart) ?(max_restarts = 1_000_000)
    m ~f ~start =
  let f = Bdd.and_ m.Kripke.man f m.Kripke.space in
  let egf, rings =
    match hull with Some h -> h | None -> Ctl.Fair.eg_rings ?limits m f
  in
  if not (in_set m egf start) then
    raise (No_witness "EG: start state does not satisfy fair EG f");
  (* Each failed round strictly descends the DAG of strongly connected
     components, so the number of restarts is bounded by the number of
     states; [max_restarts] is a hard backstop against implementation
     bugs.  On exhaustion the collected prefix and round counts are
     preserved in the exception so the failure is diagnosable. *)
  let phases = Array.make 3 0.0 in
  let rec loop prefix_rev s restarts =
    if restarts > max_restarts then
      raise
        (Restart_bound_exceeded
           { restarts; rounds = restarts; prefix = List.rev prefix_rev });
    note_progress limits prefix_rev;
    match run_round ?limits m ~phases ~strategy ~f ~egf ~rings s with
    | Closed (round_states, closing) ->
      let prefix = List.rev prefix_rev in
      (* closing = u .. t ; drop the final t (it opens the cycle). *)
      let closing_body =
        match List.rev closing with
        | _t :: rev_rest -> List.rev rev_rest
        | [] -> []
      in
      let cycle = round_states @ closing_body in
      ( Kripke.Trace.lasso ~prefix ~cycle,
        { restarts; rounds = restarts + 1; choice_s = phases.(0);
          descents_s = phases.(1); closing_s = phases.(2) } )
    | Failed round_states ->
      let s' =
        match List.rev round_states with
        | last :: _ -> last
        | [] -> raise (No_witness "EG: empty round")
      in
      loop (List.rev_append round_states prefix_rev) s' (restarts + 1)
  in
  loop [ start ] start 0

let eg ?limits ?hull ?strategy m ~f ~start =
  fst (eg_stats ?limits ?hull ?strategy m ~f ~start)
