exception Too_large of int

(* The codes of a (current-copy) state set, folded in [Bdd.fold_sat]'s
   order: variables by level, the [false] branch first.  [vars] holds
   the current-copy variables in level order. *)
let fold_codes man vars set ~init ~f =
  let nv = Array.length vars in
  let rec go j set code acc =
    if Bdd.is_zero set then acc
    else if j = nv then f acc code
    else begin
      let v = vars.(j) in
      let top = (not (Bdd.is_one set)) && Bdd.topvar man set = v in
      let lo = if top then Bdd.low man set else set
      and hi = if top then Bdd.high man set else set in
      let acc = go (j + 1) lo code acc in
      go (j + 1) hi (code lor (1 lsl (v / 2))) acc
    end
  in
  go 0 set 0 init

let of_kripke ?(max_states = 65536) (m : Kripke.t) =
  let count = Kripke.count_states m m.Kripke.space in
  if count > float_of_int max_states || m.Kripke.nbits >= Sys.int_size then
    raise (Too_large (int_of_float count));
  let nbits = m.Kripke.nbits in
  let vars =
    Bdd.Reorder.order m.Kripke.man
    |> Array.to_list
    |> List.filter (fun v -> v mod 2 = 0 && v < 2 * nbits)
    |> Array.of_list
  in
  (* States are indexed by their bits packed into an int (bit [b] of
     the state is bit [b] of the code), in [Kripke.states_in]'s
     order. *)
  let codes =
    Array.of_list
      (List.rev
         (fold_codes m.Kripke.man vars m.Kripke.space ~init:[]
            ~f:(fun acc code -> code :: acc)))
  in
  let states =
    Array.map (fun c -> Array.init nbits (fun b -> (c lsr b) land 1 = 1)) codes
  in
  let n = Array.length states in
  let index = Hashtbl.create (2 * n) in
  Array.iteri (fun i code -> Hashtbl.replace index code i) codes;
  let idx code =
    match Hashtbl.find_opt index code with
    | Some i -> i
    | None -> invalid_arg "Bridge.of_kripke: state outside the space"
  in
  let edges = ref [] in
  Array.iteri
    (fun i st ->
      edges :=
        fold_codes m.Kripke.man vars (Kripke.successors m st) ~init:!edges
          ~f:(fun acc code -> (i, idx code) :: acc))
    states;
  let mask_of_set set =
    Array.map (fun st -> Kripke.eval_in_state m set st) states
  in
  let init =
    Array.to_list
      (Array.of_seq
         (Seq.filter_map
            (fun i ->
              if Kripke.eval_in_state m m.Kripke.init states.(i) then Some i
              else None)
            (Seq.init n Fun.id)))
  in
  let fairness = List.map mask_of_set m.Kripke.fairness in
  let g = Egraph.make ~nstates:n ~edges:!edges ~init ~fairness () in
  (g, states, mask_of_set)

let to_kripke ?(labels = []) (g : Egraph.t) =
  let b = Kripke.Builder.create () in
  let n = g.Egraph.nstates in
  let sv = Kripke.Builder.range_var b "s" 0 (n - 1) in
  let at i = Kripke.Builder.is b sv (Kripke.I i) in
  let at' i = Kripke.Builder.is' b sv (Kripke.I i) in
  let bman = Kripke.Builder.man b in
  Array.iteri
    (fun i succ ->
      Array.iter
        (fun j -> Kripke.Builder.add_trans_case b (Bdd.and_ bman (at i) (at' j)))
        succ)
    g.Egraph.succ;
  (* A graph with no edge at all still needs a (false) relation. *)
  if Array.for_all (fun ss -> Array.length ss = 0) g.Egraph.succ then
    Kripke.Builder.add_trans b (Bdd.zero bman);
  Kripke.Builder.add_init b
    (Bdd.disj bman (List.map at g.Egraph.init));
  List.iter
    (fun mask ->
      let states = ref [] in
      Array.iteri (fun i hit -> if hit then states := at i :: !states) mask;
      Kripke.Builder.add_fairness b (Bdd.disj bman !states))
    g.Egraph.fairness;
  List.iter
    (fun (name, states) ->
      Kripke.Builder.add_label b name (Bdd.disj bman (List.map at states)))
    labels;
  let m = Kripke.Builder.build b in
  let encode i =
    match Kripke.pick_state m (at i) with
    | Some st -> st
    | None -> assert false
  in
  (m, encode)
