(* Parametric workload models shared by the experiments. *)

(* A ring of n cells: cell i may toggle when its left neighbour is high
   (cell 0 is always enabled), one cell per step.  Reachable states
   branch heavily, which is what separates symbolic from explicit
   technology. *)
let ring n =
  let b = Kripke.Builder.create () in
  let cells =
    Array.init n (fun i -> Kripke.Builder.bool_var b (Printf.sprintf "c%d" i))
  in
  let man = Kripke.Builder.man b in
  let v = Kripke.Builder.v b and v' = Kripke.Builder.v' b in
  Array.iter (fun c -> Kripke.Builder.add_init b (Bdd.not_ man (v c))) cells;
  Array.iteri
    (fun i c ->
      let enabled =
        if i = 0 then Bdd.one man else v cells.((i - 1 + n) mod n)
      in
      let toggles = Bdd.iff man (v' c) (Bdd.not_ man (v c)) in
      Kripke.Builder.add_trans_case b
        (Bdd.conj man [ enabled; toggles; Kripke.Builder.keep_all_but b [ c ] ]))
    cells;
  Kripke.Builder.label_all_bools b;
  Kripke.Builder.build b

(* n independent free-running togglers (any one cell flips per step):
   every subset of behaviours is realisable, so CTL* disjunct
   resolution is exercised in both directions. *)
let togglers n =
  let b = Kripke.Builder.create () in
  let cells =
    Array.init n (fun i -> Kripke.Builder.bool_var b (Printf.sprintf "t%d" i))
  in
  let man = Kripke.Builder.man b in
  let v = Kripke.Builder.v b and v' = Kripke.Builder.v' b in
  Array.iter (fun c -> Kripke.Builder.add_init b (Bdd.not_ man (v c))) cells;
  Array.iter
    (fun c ->
      let toggles = Bdd.iff man (v' c) (Bdd.not_ man (v c)) in
      Kripke.Builder.add_trans_case b
        (Bdd.and_ man toggles (Kripke.Builder.keep_all_but b [ c ])))
    cells;
  (* also allow stuttering so FG branches are realisable *)
  Kripke.Builder.add_trans_case b (Kripke.Builder.keep_all_but b []);
  Kripke.Builder.label_all_bools b;
  Kripke.Builder.build b

(* A chain of k strongly connected components, each a directed cycle of
   [size] states, with one forward edge between consecutive components
   (Figure 2's shape).  Returns the explicit graph; state numbering:
   component j occupies [j*size .. j*size+size-1]. *)
let scc_chain ?(fair_last = false) ~components ~size () =
  let n = components * size in
  let edges = ref [] in
  for j = 0 to components - 1 do
    let base = j * size in
    for i = 0 to size - 1 do
      edges := (base + i, base + ((i + 1) mod size)) :: !edges
    done;
    if j < components - 1 then edges := (base, base + size) :: !edges
  done;
  let fairness =
    if fair_last then [ Explicit.Egraph.mask_of_list ~nstates:n [ n - 1 ] ]
    else []
  in
  Explicit.Egraph.make ~nstates:n ~edges:!edges ~init:[ 0 ] ~fairness ()

(* Random strongly connected explicit graph with [k] random fairness
   constraints (each a random non-empty state set); the Hamiltonian
   backbone guarantees every constraint set has a covering cycle. *)
let random_fair_graph rng ~nstates ~extra_edges ~constraints =
  let edges = ref [] in
  for i = 0 to nstates - 1 do
    edges := (i, (i + 1) mod nstates) :: !edges
  done;
  for _ = 1 to extra_edges do
    edges :=
      (Random.State.int rng nstates, Random.State.int rng nstates) :: !edges
  done;
  let fairness =
    List.init constraints (fun _ ->
        let mask = Array.make nstates false in
        mask.(Random.State.int rng nstates) <- true;
        mask)
  in
  Explicit.Egraph.make ~nstates ~edges:!edges ~init:[ 0 ] ~fairness ()

(* Round-robin scheduler automaton over n processes: accepts exactly
   the round-robin schedules. *)
let round_robin n =
  let alphabet = Array.init n (fun i -> Printf.sprintf "run%d" i) in
  Automata.Streett.of_buchi ~nstates:n ~init:0 ~alphabet
    ~delta:(List.init n (fun i -> (i, i, (i + 1) mod n)))
    ~accepting:(List.init n Fun.id)

(* A scheduler free to run anything (accepts every schedule). *)
let chaotic_scheduler n =
  let alphabet = Array.init n (fun i -> Printf.sprintf "run%d" i) in
  Automata.Streett.of_buchi ~nstates:1 ~init:0 ~alphabet
    ~delta:(List.init n (fun a -> (0, a, 0)))
    ~accepting:[ 0 ]

(* Deterministic specification: process 0 is scheduled infinitely
   often. *)
let process0_fair n =
  let alphabet = Array.init n (fun i -> Printf.sprintf "run%d" i) in
  let delta =
    List.concat_map
      (fun s -> List.init n (fun a -> (s, a, if a = 0 then 0 else 1)))
      [ 0; 1 ]
  in
  Automata.Streett.make ~nstates:2 ~init:0 ~alphabet ~delta
    ~accept:[ ([], [ 0 ]) ]

(* An n-cell synchronous "XOR cellular automaton" with one
   nondeterministic input cell: every step, cell i becomes the XOR of
   its two neighbours (cell 0 reads a free input).  The relation is
   naturally one conjunct per cell, the partitioning showcase.
   Returns both the monolithic and the partitioned model. *)
let xor_automaton n =
  let build partitioned =
    let b = Kripke.Builder.create () in
    let cells =
      Array.init n (fun i -> Kripke.Builder.bool_var b (Printf.sprintf "x%d" i))
    in
    let man = Kripke.Builder.man b in
    let v = Kripke.Builder.v b and v' = Kripke.Builder.v' b in
    Array.iter (fun c -> Kripke.Builder.add_init b (Bdd.not_ man (v c))) cells;
    Array.iteri
      (fun i c ->
        if i = 0 then () (* free input: unconstrained next value *)
        else
          let left = v cells.(i - 1) in
          let right = v cells.((i + 1) mod n) in
          Kripke.Builder.add_trans b
            (Bdd.iff man (v' c) (Bdd.xor man left right)))
      cells;
    Kripke.Builder.label_all_bools b;
    if partitioned then Kripke.Builder.build_partitioned b
    else Kripke.Builder.build b
  in
  (build false, build true)
