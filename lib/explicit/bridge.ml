exception Too_large of int

let of_kripke ?(max_states = 65536) (m : Kripke.t) =
  let count = Kripke.count_states m m.Kripke.space in
  if count > float_of_int max_states then
    raise (Too_large (int_of_float count));
  let states = Array.of_list (Kripke.states_in m m.Kripke.space) in
  let n = Array.length states in
  let index = Hashtbl.create (2 * n) in
  Array.iteri (fun i st -> Hashtbl.replace index st i) states;
  let idx st =
    match Hashtbl.find_opt index st with
    | Some i -> i
    | None -> invalid_arg "Bridge.of_kripke: state outside the space"
  in
  let edges = ref [] in
  Array.iteri
    (fun i st ->
      let succ = Kripke.successors m st in
      List.iter
        (fun st' -> edges := (i, idx st') :: !edges)
        (Kripke.states_in m succ))
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
