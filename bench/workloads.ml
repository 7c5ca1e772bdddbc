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
   Returns the model as built and the same model partitioned. *)
let xor_automaton n =
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
  let m = Kripke.Builder.build b in
  (m, Kripke.with_partition m (Kripke.Builder.clusters b))

(* SMV source generators for the server and node-store experiments
   (E14-E17), which drive the full frontend rather than the builder. *)

(* The round-robin token arbiter of examples/models/arbiter.smv,
   parameterised over the number of users and generated with the same
   adversarial declaration order. *)
let arbiter_smv n =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "MODULE main\nVAR\n";
  for i = 0 to n - 1 do
    pf "  req%d : boolean;\n" i
  done;
  for i = 0 to n - 1 do
    pf "  ack%d : boolean;\n" i
  done;
  pf "  token : {%s};\n"
    (String.concat ", " (List.init n (Printf.sprintf "t%d")));
  pf "ASSIGN\n";
  for i = 0 to n - 1 do
    pf "  init(req%d) := FALSE;\n  init(ack%d) := FALSE;\n" i i
  done;
  pf "  init(token) := t0;\n";
  pf "  next(token) := case\n";
  for i = 0 to n - 2 do
    pf "      token = t%d : t%d;\n" i (i + 1)
  done;
  pf "      TRUE : t0;\n    esac;\n";
  for i = 0 to n - 1 do
    pf "  next(ack%d) := req%d & token = t%d;\n" i i i
  done;
  for i = 0 to n - 1 do
    pf
      "  next(req%d) := case ack%d : {TRUE, FALSE}; req%d : TRUE; TRUE : \
       {TRUE, FALSE}; esac;\n"
      i i i
  done;
  pf "SPEC AG !(ack0 & ack1)\n";
  pf "SPEC AG (req0 -> AF ack0)\n";
  pf "SPEC AG (req1 -> AF !req1)\n";
  Buffer.contents b

(* A plain n-bit binary counter: bit k toggles when all lower bits are
   1.  EF(all ones) walks the whole 2^n chain backwards. *)
let counter_smv n =
  let b = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "MODULE main\nVAR\n";
  for i = 0 to n - 1 do
    pf "  b%d : boolean;\n" i
  done;
  pf "ASSIGN\n";
  for i = 0 to n - 1 do
    pf "  init(b%d) := FALSE;\n" i
  done;
  for i = 0 to n - 1 do
    let lower = List.init i (Printf.sprintf "b%d") in
    let all_lower = match lower with [] -> "TRUE" | l -> String.concat " & " l in
    pf "  next(b%d) := case %s : !b%d; TRUE : b%d; esac;\n" i all_lower i i
  done;
  pf "SPEC EF (%s)\n" (String.concat " & " (List.init n (Printf.sprintf "b%d")));
  pf "SPEC AG (b0 -> EF !b0)\n";
  Buffer.contents b
