(* Shared test models and random generators.

   The random-model pipeline builds an explicit graph first (so the
   ground truth is independent of the symbolic machinery), then encodes
   it symbolically through Explicit.Bridge.to_kripke; properties then
   compare the symbolic checker against the explicit oracle on the very
   same structure. *)

(* ------------------------------------------------------------------ *)
(* A two-process mutual-exclusion model with a turn variable.          *)

type mutex = {
  m : Kripke.t;
  t1 : Ctl.t;  (* process 1 trying *)
  c1 : Ctl.t;  (* process 1 critical *)
  t2 : Ctl.t;
  c2 : Ctl.t;
}

(* Each process: idle -> trying -> critical -> idle; entering the
   critical section requires the turn; leaving flips the turn.  One
   process moves per step (interleaving).  Fairness: each process is
   scheduled infinitely often (its program counter changes or it stays
   idle voluntarily... modelled simply as "process i not in critical"
   union "just left" — we use the standard "infinitely often not
   trying-while-turn-held" would be contrived, so instead we use
   scheduling fairness: infinitely often it is process i's move).  A
   'mover' variable records who moved. *)
let mutex () =
  let b = Kripke.Builder.create () in
  let p1 = Kripke.Builder.enum_var b "p1" [ "idle"; "try"; "crit" ] in
  let p2 = Kripke.Builder.enum_var b "p2" [ "idle"; "try"; "crit" ] in
  let turn = Kripke.Builder.bool_var b "turn" in (* false: p1, true: p2 *)
  let mover = Kripke.Builder.bool_var b "mover" in (* who just moved *)
  let bman = Kripke.Builder.man b in
  let is = Kripke.Builder.is b and is' = Kripke.Builder.is' b in
  let v = Kripke.Builder.v b and v' = Kripke.Builder.v' b in
  let s name = Kripke.S name in
  let unchanged = Kripke.Builder.unchanged b in
  Kripke.Builder.add_init b
    (Bdd.conj bman
       [ is p1 (s "idle"); is p2 (s "idle");
         Bdd.not_ bman (v turn); Bdd.not_ bman (v mover) ]);
  (* Process 1 steps (mover' = false). *)
  let keep_turn = unchanged turn in
  let turn_to own = if own then v' turn else Bdd.not_ bman (v' turn) in
  let p1_steps =
    [ (* idle -> try *)
      Bdd.conj bman [ is p1 (s "idle"); is' p1 (s "try"); keep_turn ];
      (* idle -> idle (may stay out) *)
      Bdd.conj bman [ is p1 (s "idle"); is' p1 (s "idle"); keep_turn ];
      (* try -> crit when turn is p1's *)
      Bdd.conj bman
        [ is p1 (s "try"); Bdd.not_ bman (v turn); is' p1 (s "crit");
          keep_turn ];
      (* try -> try (blocked or dawdling) *)
      Bdd.conj bman [ is p1 (s "try"); is' p1 (s "try"); keep_turn ];
      (* crit -> idle, hand the turn over *)
      Bdd.conj bman [ is p1 (s "crit"); is' p1 (s "idle"); turn_to true ];
    ]
  in
  let p2_steps =
    [ Bdd.conj bman [ is p2 (s "idle"); is' p2 (s "try"); keep_turn ];
      Bdd.conj bman [ is p2 (s "idle"); is' p2 (s "idle"); keep_turn ];
      Bdd.conj bman
        [ is p2 (s "try"); v turn; is' p2 (s "crit"); keep_turn ];
      Bdd.conj bman [ is p2 (s "try"); is' p2 (s "try"); keep_turn ];
      Bdd.conj bman [ is p2 (s "crit"); is' p2 (s "idle"); turn_to false ];
    ]
  in
  List.iter
    (fun step ->
      Kripke.Builder.add_trans_case b
        (Bdd.conj bman
           [ step; Bdd.not_ bman (v' mover); Kripke.Builder.unchanged b p2 ]))
    p1_steps;
  List.iter
    (fun step ->
      Kripke.Builder.add_trans_case b
        (Bdd.conj bman [ step; v' mover; Kripke.Builder.unchanged b p1 ]))
    p2_steps;
  (* Scheduling fairness: each process moves infinitely often; progress
     fairness: a trying process with the turn eventually enters. *)
  Kripke.Builder.add_fairness b (Bdd.not_ bman (v mover));
  Kripke.Builder.add_fairness b (v mover);
  Kripke.Builder.add_fairness b
    (Bdd.not_ bman (Bdd.and_ bman (is p1 (s "try")) (Bdd.not_ bman (v turn))));
  Kripke.Builder.add_fairness b
    (Bdd.not_ bman (Bdd.and_ bman (is p2 (s "try")) (v turn)));
  Kripke.Builder.add_label b "t1" (is p1 (s "try"));
  Kripke.Builder.add_label b "c1" (is p1 (s "crit"));
  Kripke.Builder.add_label b "t2" (is p2 (s "try"));
  Kripke.Builder.add_label b "c2" (is p2 (s "crit"));
  let m = Kripke.Builder.build b in
  {
    m;
    t1 = Ctl.atom "t1";
    c1 = Ctl.atom "c1";
    t2 = Ctl.atom "t2";
    c2 = Ctl.atom "c2";
  }

(* ------------------------------------------------------------------ *)
(* A modulo-k counter with an "up" toggle: deterministic, good for     *)
(* exact reachability counts.                                          *)

let counter bits =
  let b = Kripke.Builder.create () in
  let vs = List.init bits (fun i -> Kripke.Builder.bool_var b (Printf.sprintf "b%d" i)) in
  let bman = Kripke.Builder.man b in
  let v = Kripke.Builder.v b and v' = Kripke.Builder.v' b in
  List.iter (fun x -> Kripke.Builder.add_init b (Bdd.not_ bman (v x))) vs;
  (* increment: bit i flips iff all lower bits are 1 *)
  let rec carries acc = function
    | [] -> ()
    | x :: rest ->
      Kripke.Builder.add_trans b
        (Bdd.iff bman (v' x) (Bdd.xor bman (v x) acc));
      carries (Bdd.and_ bman acc (v x)) rest
  in
  carries (Bdd.one bman) vs;
  Kripke.Builder.label_all_bools b;
  Kripke.Builder.build b

(* ------------------------------------------------------------------ *)
(* Random explicit graphs + their symbolic encodings.                  *)

type random_model = {
  graph : Explicit.Egraph.t;
  sym : Kripke.t;
  encode : int -> Kripke.state;
  atom_mask : string -> bool array;
}

let atom_names = [ "p"; "q"; "r" ]

let random_model_gen ?(max_states = 8) ?(nfair = 0) ?(ninit = 1) () =
  let open QCheck2.Gen in
  let* n = int_range 1 max_states in
  let state = int_bound (n - 1) in
  (* Ensure totality: every state gets at least one successor. *)
  let* forced = array_size (return n) state in
  let* extra = list_size (int_bound (2 * n)) (pair state state) in
  let* label_sets =
    list_repeat (List.length atom_names) (list_size (int_bound n) state)
  in
  let* fair_sets = list_repeat nfair (list_size (int_range 1 n) state) in
  let* init0 = state in
  let* more =
    if ninit > 1 then list_size (int_bound (ninit - 1)) state else return []
  in
  let edges =
    Array.to_list (Array.mapi (fun i j -> (i, j)) forced) @ extra
  in
  let fairness =
    List.map (Explicit.Egraph.mask_of_list ~nstates:n) fair_sets
  in
  let graph =
    Explicit.Egraph.make ~nstates:n ~edges ~init:(List.sort_uniq Int.compare (init0 :: more)) ~fairness ()
  in
  let labels = List.combine atom_names label_sets in
  let sym, encode = Explicit.Bridge.to_kripke ~labels graph in
  let atom_mask name =
    let states = List.assoc name labels in
    Explicit.Egraph.mask_of_list ~nstates:n states
  in
  return { graph; sym; encode; atom_mask }

(* Random CTL formulas over the shared atoms. *)
let formula_gen =
  let open QCheck2.Gen in
  sized @@ fix (fun self depth ->
      let atom = map Ctl.atom (oneofl atom_names) in
      if depth <= 0 then oneof [ atom; return Ctl.True; return Ctl.False ]
      else
        let sub = self (depth / 2) in
        let sub1 = self (depth - 1) in
        oneof
          [ atom;
            map Ctl.neg sub1;
            map2 (fun a b -> Ctl.And (a, b)) sub sub;
            map2 (fun a b -> Ctl.Or (a, b)) sub sub;
            map2 (fun a b -> Ctl.Imp (a, b)) sub sub;
            map (fun f -> Ctl.EX f) sub1;
            map (fun f -> Ctl.EF f) sub1;
            map (fun f -> Ctl.EG f) sub1;
            map (fun f -> Ctl.AX f) sub1;
            map (fun f -> Ctl.AF f) sub1;
            map (fun f -> Ctl.AG f) sub1;
            map2 (fun a b -> Ctl.EU (a, b)) sub sub;
            map2 (fun a b -> Ctl.AU (a, b)) sub sub ])

(* Compare a symbolic satisfaction set against an explicit mask,
   state by state. *)
let sets_agree (rm : random_model) symbolic_set explicit_mask =
  let ok = ref true in
  Array.iteri
    (fun i hit ->
      let st = rm.encode i in
      if Kripke.eval_in_state rm.sym symbolic_set st <> hit then ok := false)
    explicit_mask;
  !ok
