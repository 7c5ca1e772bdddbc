exception No_witness of string

type strategy = Restart | Precompute

type stats = {
  restarts : int;
  rounds : int;
}

exception
  Restart_bound_exceeded of {
    restarts : int;
    rounds : int;
    prefix : Kripke.state list;
  }

let in_set m set st = Kripke.eval_in_state m set st

(* Charge one ring-descent segment against the optional resource
   limits (shared by every descent below). *)
let ring_tick (m : Kripke.t) = function
  | None -> ()
  | Some l -> Bdd.Limits.ring_step m.Kripke.man l

let note_progress limits prefix_rev =
  match limits with
  | None -> ()
  | Some l -> Bdd.Limits.note_witness l (List.rev prefix_rev)

let succ_set m st = Kripke.post m (Kripke.state_to_bdd m st)

let pick m set =
  match Kripke.pick_state m set with
  | Some st -> st
  | None -> raise (No_witness "internal: empty pick")

(* Smallest ring index below [limit] whose intersection with [set] is
   non-empty, together with a representative state; scanning from 0
   yields the shortest continuation. *)
let min_layer m ?limit (layers : Bdd.t array) set =
  let bman = m.Kripke.man in
  let bound =
    match limit with Some j -> j | None -> Array.length layers
  in
  let rec scan i =
    if i >= bound then None
    else
      let inter = Bdd.and_ bman layers.(i) set in
      if Bdd.is_zero inter then scan (i + 1) else Some (i, pick m inter)
  in
  scan 0

(* Walk from [start] (a member of [layers.(j0)]) down to a layer-0
   state; returns the states strictly after [start], in order.  The
   strictly-descending scan is expressed as an index bound on
   [min_layer] — copying a ring-array prefix per step ([Array.sub])
   would make each descent quadratic in the ring count. *)
let descend ?limits m layers ~start ~level:j0 =
  let rec go acc st j =
    if j = 0 then List.rev acc
    else begin
      ring_tick m limits;
      match min_layer m ~limit:j layers (succ_set m st) with
      | Some (j', next) -> go (next :: acc) next j'
      | None -> raise (No_witness "internal: ring descent stuck")
    end
  in
  go [] start j0

let level_of m layers st =
  let rec scan i =
    if i >= Array.length layers then None
    else if in_set m layers.(i) st then Some i
    else scan (i + 1)
  in
  scan 0

(* ------------------------------------------------------------------ *)
(* EX and EU (no fairness).                                            *)

let ex ?limits m ~f ~start =
  let bman = m.Kripke.man in
  ring_tick m limits;
  let target = Bdd.and_ bman (succ_set m start) f in
  match Kripke.pick_state m target with
  | Some next -> Kripke.Trace.finite [ start; next ]
  | None -> raise (No_witness "EX: start state has no successor in f")

let eu ?limits m ~f ~g ~start =
  let rings = Ctl.Check.eu_rings ?limits m f g in
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

let run_round ?limits m ~strategy ~f ~egf ~(rings : Ctl.Fair.rings list) s =
  let exception Early_exit of Kripke.state list in
  (* Precompute strategy: set once [t] is known. *)
  let reach_t = ref None in
  let emit acc st =
    (match !reach_t with
    | Some r when not (in_set m r st) -> raise (Early_exit (st :: acc))
    | Some _ | None -> ());
    st :: acc
  in
  let visit_constraint (acc, current) (r : Ctl.Fair.rings) =
    ring_tick m limits;
    match min_layer m r.Ctl.Fair.layers (succ_set m current) with
    | None -> raise (No_witness "EG: no fairness constraint reachable")
    | Some (j, first) ->
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
     reached"), so segments re-sort dynamically. *)
  let rec rounds acc current remaining =
    match remaining with
    | [] -> (acc, current)
    | first_r :: _ ->
      let dist r =
        match min_layer m r.Ctl.Fair.layers (succ_set m current) with
        | Some (j, _) -> j
        | None -> max_int
      in
      let best, best_d =
        List.fold_left
          (fun (br, bd) r ->
            let d = dist r in
            if d < bd then (r, d) else (br, bd))
          (first_r, dist first_r)
          (List.tl remaining)
      in
      if best_d = max_int then
        raise (No_witness "EG: no fairness constraint reachable");
      let acc, current = visit_constraint (acc, current) best in
      let remaining' =
        List.filter
          (fun r' -> not (Bdd.equal r'.Ctl.Fair.constr best.Ctl.Fair.constr))
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
       {s'} /\ EX E[f U {t}]. *)
    let t_set = Kripke.state_to_bdd m t in
    let closing_rings = Ctl.Check.eu_rings ?limits m f t_set in
    (match min_layer m closing_rings (succ_set m s') with
    | Some (j, u) ->
      let closing = u :: descend ?limits m closing_rings ~start:u ~level:j in
      Closed (round_states, closing)
    | None -> Failed round_states)

let eg_stats ?limits ?(strategy = Restart) ?(max_restarts = 1_000_000)
    m ~f ~start =
  let f = Bdd.and_ m.Kripke.man f m.Kripke.space in
  let egf, rings = Ctl.Fair.eg_with_rings ?limits m f in
  if not (in_set m egf start) then
    raise (No_witness "EG: start state does not satisfy fair EG f");
  (* Each failed round strictly descends the DAG of strongly connected
     components, so the number of restarts is bounded by the number of
     states; [max_restarts] is a hard backstop against implementation
     bugs.  On exhaustion the collected prefix and round counts are
     preserved in the exception so the failure is diagnosable. *)
  let rec loop prefix_rev s restarts =
    if restarts > max_restarts then
      raise
        (Restart_bound_exceeded
           { restarts; rounds = restarts; prefix = List.rev prefix_rev });
    note_progress limits prefix_rev;
    match run_round ?limits m ~strategy ~f ~egf ~rings s with
    | Closed (round_states, closing) ->
      let prefix = List.rev prefix_rev in
      (* closing = u .. t ; drop the final t (it opens the cycle). *)
      let closing_body =
        match List.rev closing with
        | _t :: rev_rest -> List.rev rev_rest
        | [] -> []
      in
      let cycle = round_states @ closing_body in
      (Kripke.Trace.lasso ~prefix ~cycle, { restarts; rounds = restarts + 1 })
    | Failed round_states ->
      let s' =
        match List.rev round_states with
        | last :: _ -> last
        | [] -> raise (No_witness "EG: empty round")
      in
      loop (List.rev_append round_states prefix_rev) s' (restarts + 1)
  in
  loop [ start ] start 0

let eg ?limits ?strategy m ~f ~start =
  fst (eg_stats ?limits ?strategy m ~f ~start)
