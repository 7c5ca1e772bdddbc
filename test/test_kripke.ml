(* Tests for the symbolic Kripke structure layer: variable encoding,
   images, reachability, state decoding, builder and traces. *)

let counter3 = lazy (Models.counter 3)

let test_counter_reachable () =
  let m = Lazy.force counter3 in
  Alcotest.(check (float 1e-9)) "all 8 states reachable" 8.0
    (Kripke.count_states m (Kripke.reachable m))

let test_counter_deterministic () =
  let m = Lazy.force counter3 in
  match Kripke.pick_state m m.Kripke.init with
  | None -> Alcotest.fail "no initial state"
  | Some st ->
    let succ = Kripke.post m (Kripke.state_to_bdd m st) in
    Alcotest.(check (float 1e-9)) "one successor" 1.0
      (Kripke.count_states m succ);
    (* 000 -> 100 (b0 flips) *)
    (match Kripke.pick_state m succ with
    | None -> Alcotest.fail "no successor"
    | Some st' ->
      Alcotest.(check bool) "b0 set" true st'.(0);
      Alcotest.(check bool) "b1 clear" false st'.(1))

let test_counter_no_deadlock () =
  let m = Lazy.force counter3 in
  Alcotest.(check bool) "total" true (Bdd.is_zero (Kripke.deadlocks m))

let test_pre_post_duality () =
  let m = Lazy.force counter3 in
  (* For a deterministic total relation, pre(post(S)) >= S. *)
  let s = Kripke.label m "b1" in
  let s = Bdd.and_ m.Kripke.man s m.Kripke.space in
  Alcotest.(check bool) "S <= pre(post S)" true
    (Bdd.subset m.Kripke.man s (Kripke.pre m (Kripke.post m s)))

let test_value_decoding () =
  let { Models.m; _ } = Models.mutex () in
  match Kripke.pick_state m m.Kripke.init with
  | None -> Alcotest.fail "no initial state"
  | Some st ->
    let p1 = Kripke.var_by_name m "p1" in
    Alcotest.(check string) "p1 starts idle" "idle"
      (match Kripke.value_of_state p1 st with
      | Kripke.S s -> s
      | Kripke.B _ | Kripke.I _ -> "?");
    let turn = Kripke.var_by_name m "turn" in
    Alcotest.(check bool) "turn starts false" false
      (match Kripke.value_of_state turn st with
      | Kripke.B b -> b
      | Kripke.S _ | Kripke.I _ -> true)

let test_var_by_name_missing () =
  let m = Lazy.force counter3 in
  Alcotest.check_raises "unknown var" Not_found (fun () ->
      ignore (Kripke.var_by_name m "nope"))

let test_states_in_roundtrip () =
  let m = Lazy.force counter3 in
  let all = Kripke.states_in m m.Kripke.space in
  Alcotest.(check int) "8 states listed" 8 (List.length all);
  List.iter
    (fun st ->
      let back = Kripke.state_to_bdd m st in
      Alcotest.(check bool) "member of own singleton" true
        (Kripke.eval_in_state m back st))
    all

let test_pick_state_respects_space () =
  (* An enum of 3 values has an invalid 4th encoding; pick_state must
     never produce it. *)
  let b = Kripke.Builder.create () in
  let x = Kripke.Builder.enum_var b "x" [ "a"; "b"; "c" ] in
  Kripke.Builder.add_trans b (Kripke.Builder.unchanged b x);
  let m = Kripke.Builder.build b in
  match Kripke.pick_state m m.Kripke.space with
  | None -> Alcotest.fail "space empty"
  | Some st -> ignore (Kripke.value_of_state x st) (* must not raise *)

let test_pick_state_single () =
  (* Picking from a set with don't-care bits must yield one genuine
     state of the set, not a partial cube. *)
  let m = Lazy.force counter3 in
  let set = Kripke.label m "b1" in
  match Kripke.pick_state m set with
  | None -> Alcotest.fail "set is non-empty"
  | Some st ->
    Alcotest.(check int) "one bit per state bit" m.Kripke.nbits
      (Array.length st);
    Alcotest.(check bool) "picked state is in the set" true
      (Kripke.eval_in_state m set st);
    Alcotest.(check (float 1e-9)) "decodes to a single state" 1.0
      (Kripke.count_states m (Kripke.state_to_bdd m st))

let test_pick_state_rejects_next_vars () =
  (* BDD variable 1 is the next-state copy of bit 0; a "state set"
     constraining it cannot be decoded into a state. *)
  let m = Lazy.force counter3 in
  let bad = Bdd.var m.Kripke.man 1 in
  Alcotest.check_raises "next-copy constraint rejected"
    (Invalid_argument "Kripke.pick_state: set constrains next-state variables")
    (fun () -> ignore (Kripke.pick_state m bad))

let test_model_roots_survive_gc () =
  (* [Kripke.make] registers the model's BDDs as GC roots, so an
     explicit collection must not disturb reachability analysis. *)
  let m = Models.counter 3 in
  let before = Kripke.count_states m (Kripke.reachable m) in
  ignore (Bdd.gc m.Kripke.man : int);
  Alcotest.(check bool) "model roots registered" true
    (Kripke.roots m <> []);
  Alcotest.(check (float 1e-9)) "reachable unchanged after gc" before
    (Kripke.count_states m (Kripke.reachable m))

let test_enum_space_count () =
  let b = Kripke.Builder.create () in
  let x = Kripke.Builder.enum_var b "x" [ "a"; "b"; "c" ] in
  Kripke.Builder.add_trans b (Kripke.Builder.unchanged b x);
  let m = Kripke.Builder.build b in
  Alcotest.(check (float 1e-9)) "3 valid states" 3.0
    (Kripke.count_states m m.Kripke.space)

let test_totalize () =
  let b = Kripke.Builder.create () in
  let x = Kripke.Builder.bool_var b "x" in
  (* Only transition: x=false -> x=true; the x=true state deadlocks. *)
  let bman = Kripke.Builder.man b in
  Kripke.Builder.add_trans b
    (Bdd.and_ bman (Bdd.not_ bman (Kripke.Builder.v b x)) (Kripke.Builder.v' b x));
  Kripke.Builder.add_init b (Bdd.not_ bman (Kripke.Builder.v b x));
  let m = Kripke.Builder.build b in
  Alcotest.(check bool) "has deadlock" false (Bdd.is_zero (Kripke.deadlocks m));
  let m' = Kripke.Builder.totalize m in
  Alcotest.(check bool) "totalized" true (Bdd.is_zero (Kripke.deadlocks m'))

let test_builder_duplicate_var () =
  let b = Kripke.Builder.create () in
  let _ = Kripke.Builder.bool_var b "x" in
  Alcotest.check_raises "duplicate" (Invalid_argument "Builder: duplicate variable x")
    (fun () -> ignore (Kripke.Builder.bool_var b "x"))

let test_builder_bad_enum () =
  let b = Kripke.Builder.create () in
  Alcotest.check_raises "empty enum"
    (Invalid_argument "Builder.enum_var: empty enumeration") (fun () ->
      ignore (Kripke.Builder.enum_var b "x" []));
  Alcotest.check_raises "dup consts"
    (Invalid_argument "Builder.enum_var: duplicate constants") (fun () ->
      ignore (Kripke.Builder.enum_var b "y" [ "a"; "a" ]))

let test_builder_value_errors () =
  let b = Kripke.Builder.create () in
  let x = Kripke.Builder.enum_var b "x" [ "a"; "b" ] in
  Alcotest.check_raises "wrong type"
    (Invalid_argument "Builder: type mismatch for x") (fun () ->
      ignore (Kripke.Builder.is b x (Kripke.I 0)));
  Alcotest.check_raises "unknown constant"
    (Invalid_argument "Builder: value z not in domain of x") (fun () ->
      ignore (Kripke.Builder.is b x (Kripke.S "z")))

(* ------------------------------------------------------------------ *)
(* Trace structure.                                                    *)

let st bits = Array.of_list bits

let test_trace_basics () =
  let a = st [ false ] and b = st [ true ] in
  let tr = Kripke.Trace.lasso ~prefix:[ a ] ~cycle:[ b ] in
  Alcotest.(check int) "length" 2 (Kripke.Trace.length tr);
  Alcotest.(check bool) "lasso" true (Kripke.Trace.is_lasso tr);
  Alcotest.(check bool) "nth 0" true (Kripke.Trace.nth tr 0 == a || Kripke.Trace.nth tr 0 = a);
  Alcotest.(check bool) "nth unrolls" true (Kripke.Trace.nth tr 5 = b)

let test_trace_nth_finite () =
  let a = st [ false ] and b = st [ true ] in
  let tr = Kripke.Trace.finite [ a; b ] in
  Alcotest.(check bool) "last repeats" true (Kripke.Trace.nth tr 10 = b)

let test_trace_append () =
  let a = st [ false ] and b = st [ true ] in
  let t1 = Kripke.Trace.finite [ a; b ] in
  let t2 = Kripke.Trace.lasso ~prefix:[ b ] ~cycle:[ a ] in
  let tr = Kripke.Trace.append t1 t2 in
  Alcotest.(check int) "junction not duplicated" 3 (Kripke.Trace.length tr);
  Alcotest.(check bool) "cycle kept" true (Kripke.Trace.is_lasso tr)

let test_trace_append_mismatch () =
  let a = st [ false ] and b = st [ true ] in
  let t1 = Kripke.Trace.finite [ a ] in
  let t2 = Kripke.Trace.finite [ b ] in
  Alcotest.check_raises "junction mismatch"
    (Invalid_argument "Trace.append: traces do not share the junction state")
    (fun () -> ignore (Kripke.Trace.append t1 t2))

let test_trace_pp () =
  let m = Lazy.force counter3 in
  let states = Kripke.states_in m m.Kripke.space in
  match states with
  | s0 :: s1 :: _ ->
    let tr = Kripke.Trace.lasso ~prefix:[ s0 ] ~cycle:[ s1 ] in
    let out = Format.asprintf "%a" (Kripke.Trace.pp m) tr in
    Alcotest.(check bool) "mentions loop" true
      (Astring.String.is_infix ~affix:"loop starts here" out);
    Alcotest.(check bool) "mentions state 1.1" true
      (Astring.String.is_infix ~affix:"state 1.1" out)
  | _ -> Alcotest.fail "counter has states"

let suite =
  [
    Alcotest.test_case "counter reachable" `Quick test_counter_reachable;
    Alcotest.test_case "counter deterministic" `Quick test_counter_deterministic;
    Alcotest.test_case "counter total" `Quick test_counter_no_deadlock;
    Alcotest.test_case "pre/post duality" `Quick test_pre_post_duality;
    Alcotest.test_case "value decoding" `Quick test_value_decoding;
    Alcotest.test_case "var_by_name missing" `Quick test_var_by_name_missing;
    Alcotest.test_case "states_in roundtrip" `Quick test_states_in_roundtrip;
    Alcotest.test_case "pick_state respects space" `Quick test_pick_state_respects_space;
    Alcotest.test_case "pick_state single state" `Quick test_pick_state_single;
    Alcotest.test_case "pick_state rejects next vars" `Quick
      test_pick_state_rejects_next_vars;
    Alcotest.test_case "model roots survive gc" `Quick
      test_model_roots_survive_gc;
    Alcotest.test_case "enum space count" `Quick test_enum_space_count;
    Alcotest.test_case "totalize" `Quick test_totalize;
    Alcotest.test_case "builder duplicate var" `Quick test_builder_duplicate_var;
    Alcotest.test_case "builder bad enum" `Quick test_builder_bad_enum;
    Alcotest.test_case "builder value errors" `Quick test_builder_value_errors;
    Alcotest.test_case "trace basics" `Quick test_trace_basics;
    Alcotest.test_case "trace nth finite" `Quick test_trace_nth_finite;
    Alcotest.test_case "trace append" `Quick test_trace_append;
    Alcotest.test_case "trace append mismatch" `Quick test_trace_append_mismatch;
    Alcotest.test_case "trace pretty printing" `Quick test_trace_pp;
  ]

(* Golden test: exact SMV-style trace rendering. *)
let test_trace_golden () =
  let { Models.m; _ } = Models.mutex () in
  let states = Kripke.states_in m m.Kripke.init in
  match states with
  | init :: _ ->
    (* take two steps deterministically *)
    let next st =
      match Kripke.pick_successor m st m.Kripke.space with
      | Some s -> s
      | None -> Alcotest.fail "deadlock"
    in
    let s2 = next init in
    let tr = Kripke.Trace.lasso ~prefix:[ init ] ~cycle:[ s2 ] in
    let out = Format.asprintf "%a" (Kripke.Trace.pp m) tr in
    let lines =
      String.split_on_char '\n' out
      |> List.map String.trim
      |> List.filter (fun l -> l <> "")
    in
    (* first state lists every variable; the second is the (identical)
       idle self-loop, so its diff is empty; the loop marker precedes
       it *)
    Alcotest.(check (list string)) "golden rendering"
      [ "state 1.1:"; "p1 = idle"; "p2 = idle"; "turn = 0"; "mover = 0";
        "-- loop starts here --"; "state 1.2:" ]
      lines
  | [] -> Alcotest.fail "no initial state"

(* The exact bytes of a rendered lasso: the first state lists every
   variable, later ones only what changed (a state equal to its
   predecessor renders as a bare indent line), the loop marker precedes
   the cycle, and booleans, enum constants and range values each print
   in SMV notation. *)
let test_trace_bytes () =
  let b = Kripke.Builder.create () in
  let flag = Kripke.Builder.bool_var b "flag" in
  let mode = Kripke.Builder.enum_var b "mode" [ "idle"; "busy"; "done" ] in
  let n = Kripke.Builder.range_var b "n" 2 5 in
  Kripke.Builder.add_trans b (Bdd.one (Kripke.Builder.man b));
  let m = Kripke.Builder.build b in
  let state f md k =
    let set =
      Bdd.conj m.Kripke.man
        [ Kripke.Builder.is b flag (Kripke.B f);
          Kripke.Builder.is b mode (Kripke.S md);
          Kripke.Builder.is b n (Kripke.I k) ]
    in
    Option.get (Kripke.pick_state m set)
  in
  let a = state false "idle" 2 in
  let tr =
    Kripke.Trace.lasso
      ~prefix:[ a; a; state true "idle" 4 ]
      ~cycle:[ state true "busy" 4; state false "done" 5 ]
  in
  let expected =
    "state 1.1:\n  flag = 0\n  mode = idle\n  n = 2\n  \n\
     state 1.2:\n  \n\
     state 1.3:\n  flag = 1\n  n = 4\n  \n\
     -- loop starts here --\n\
     state 1.4:\n  mode = busy\n  \n\
     state 1.5:\n  flag = 0\n  mode = done\n  n = 5\n  \n"
  in
  Alcotest.(check string) "rendering" expected
    (Format.asprintf "%a" (Kripke.Trace.pp m) tr);
  Alcotest.(check string) "as the checker prints it" (expected ^ "\n")
    (Format.asprintf "%a@." (Kripke.Trace.pp m) tr)

(* One state's successor set by cofactoring the relation equals the
   image of the state's singleton, on every reachable state of a
   committed model, under the monolithic and the partitioned image. *)
let test_successors_are_post () =
  let c = Smv.load_file (Filename.concat "../examples/models" "philosophers.smv") in
  let m = c.Smv.Compile.model in
  let pm = Kripke.with_partition m c.Smv.Compile.clusters in
  Alcotest.(check bool) "partitioned variant" true (Kripke.partitioned pm);
  let reach = Kripke.states_in m (Kripke.reachable m) in
  Alcotest.(check bool) "several reachable states" true (List.length reach > 10);
  List.iter
    (fun model ->
      List.iter
        (fun st ->
          Alcotest.(check bool) "successors = post of the singleton" true
            (Bdd.equal (Kripke.successors model st)
               (Kripke.post model (Kripke.state_to_bdd model st))))
        reach)
    [ m; pm ]

let philosophers () =
  (Smv.load_file (Filename.concat "../examples/models" "philosophers.smv"))
    .Smv.Compile.model

(* The image cubes are built once and rooted with the model: after a
   collection whose swept slots are refilled with garbage, the cubes
   are still the cubes and [pre]/[post] return the same diagrams. *)
let test_cubes_survive_gc () =
  let m = philosophers () in
  let man = m.Kripke.man in
  let s = m.Kripke.init in
  let pre0 = Kripke.pre m s and post0 = Kripke.post m s in
  let root = Bdd.add_root man (fun () -> [ pre0; post0 ]) in
  ignore (Bdd.gc man);
  let st = Random.State.make [| 3 |] in
  for _ = 1 to 500 do
    let v () = Random.State.int st (2 * m.Kripke.nbits) in
    ignore (Bdd.and_ man (Bdd.var man (v ())) (Bdd.nvar man (v ())) : Bdd.t)
  done;
  let bits k = List.init m.Kripke.nbits (fun b -> (2 * b) + k) in
  Alcotest.(check bool) "cur_cube intact" true
    (Bdd.equal m.Kripke.cur_cube (Bdd.cube man (bits 0)));
  Alcotest.(check bool) "nxt_cube intact" true
    (Bdd.equal m.Kripke.nxt_cube (Bdd.cube man (bits 1)));
  Alcotest.(check bool) "pre unchanged" true (Bdd.equal (Kripke.pre m s) pre0);
  Alcotest.(check bool) "post unchanged" true
    (Bdd.equal (Kripke.post m s) post0);
  Bdd.remove_root man root

(* A skeleton carries no cubes: [of_skeleton] rebuilds them, in the
   same manager or in a snapshot of it, and the rebuilt model's [pre]
   is the original's diagram (snapshots keep handles). *)
let test_skeleton_pre () =
  let m = philosophers () in
  let s = m.Kripke.init in
  let p = Kripke.pre m s in
  let sk = Kripke.skeleton m in
  let same = Kripke.of_skeleton ~man:m.Kripke.man sk in
  Alcotest.(check bool) "same manager" true (Bdd.equal (Kripke.pre same s) p);
  let man' = Bdd.Snapshot.load (Bdd.Snapshot.dump m.Kripke.man) in
  let m' = Kripke.of_skeleton ~man:man' sk in
  Alcotest.(check int) "restored manager" (Bdd.id p) (Bdd.id (Kripke.pre m' s))

let suite =
  suite
  @ [ Alcotest.test_case "image cubes survive gc" `Quick test_cubes_survive_gc;
      Alcotest.test_case "of_skeleton rebuilds the cubes" `Quick
        test_skeleton_pre;
      Alcotest.test_case "trace golden rendering" `Quick test_trace_golden;
      Alcotest.test_case "trace rendering bytes" `Quick test_trace_bytes;
      Alcotest.test_case "successors by cofactor" `Quick
        test_successors_are_post ]

(* ------------------------------------------------------------------ *)
(* One state's successors: the cofactor and the unprime in one walk.   *)

(* An explicit graph's relation in a fresh manager under the order
   [order_of width] (a permutation of the 2 * width BDD variables), so
   the walk meets next bits above their current bits. *)
let graph_model (g : Explicit.Egraph.t) order_of =
  let n = g.Explicit.Egraph.nstates in
  let vtype = Kripke.Range (0, n - 1) in
  let width = Kripke.width vtype in
  let man = Bdd.create () in
  Bdd.Reorder.set_order man (order_of width);
  let code copy i =
    List.init width (fun k -> ((2 * k) + copy, (i lsr k) land 1 = 1))
  in
  let trans =
    Bdd.disj man
      (List.concat
         (List.init n (fun i ->
              Array.to_list
                (Array.map
                   (fun j -> Bdd.minterm man (code 0 i @ code 1 j))
                   g.Explicit.Egraph.succ.(i)))))
  in
  let init =
    Bdd.disj man (List.map (fun i -> Bdd.minterm man (code 0 i)) g.Explicit.Egraph.init)
  in
  let m =
    Kripke.make ~man
      ~vars:[ Kripke.mk_var ~name:"s" ~vtype ~first_bit:0 ]
      ~nbits:width ~init ~trans ()
  in
  (m, fun i -> Option.get (Kripke.pick_state m (Bdd.minterm man (code 0 i))))

(* Each next bit directly above its current bit. *)
let swapped_pairs width = Array.init (2 * width) (fun l -> l lxor 1)

(* Every next bit above every current bit, the next bits in reverse:
   a shifted variable lands below the ones already rebuilt, so the
   walk takes its [ite] path. *)
let next_block_reversed width =
  Array.init (2 * width) (fun l ->
      if l < width then (2 * (width - 1 - l)) + 1 else 2 * (l - width))

let successors_are_post m encode n =
  List.for_all
    (fun i ->
      let st = encode i in
      Bdd.equal (Kripke.successors m st)
        (Kripke.post m (Kripke.state_to_bdd m st)))
    (List.init n Fun.id)

let prop_successors_are_post =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"successors = post of the singleton" ~count:200
       (Models.random_model_gen ~max_states:8 ())
       (fun rm ->
         let n = rm.Models.graph.Explicit.Egraph.nstates in
         let m = rm.Models.sym in
         let man = m.Kripke.man in
         (* Two clusters that conjoin to the relation, split on the
            next copy of bit 0. *)
         let b0' = Kripke.nxt_bit m 0 in
         let pm =
           Kripke.with_partition m
             [ Bdd.or_ man m.Kripke.trans b0';
               Bdd.or_ man m.Kripke.trans (Bdd.not_ man b0') ]
         in
         let under order =
           let gm, encode = graph_model rm.Models.graph order in
           successors_are_post gm encode n
         in
         successors_are_post m rm.Models.encode n
         && successors_are_post pm rm.Models.encode n
         && under swapped_pairs
         && under next_block_reversed))

(* The next copy of a 30-bit parity is two nodes per level and 2^30
   paths: the walk finishes only if it visits each shared node once. *)
let test_successors_share () =
  let bits = 30 in
  let b = Kripke.Builder.create () in
  let xs =
    List.init bits (fun i -> Kripke.Builder.bool_var b (Printf.sprintf "x%d" i))
  in
  let bman = Kripke.Builder.man b in
  let parity' =
    List.fold_left (fun acc x -> Bdd.xor bman acc (Kripke.Builder.v' b x))
      (Bdd.zero bman) xs
  in
  Kripke.Builder.add_trans b
    (Bdd.iff bman parity' (Kripke.Builder.v b (List.hd xs)));
  let m = Kripke.Builder.build b in
  let st = Array.make m.Kripke.nbits false in
  let succ = Kripke.successors m st in
  Alcotest.(check bool) "equals post" true
    (Bdd.equal succ (Kripke.post m (Kripke.state_to_bdd m st)));
  Alcotest.(check (float 0.5)) "the even-parity states"
    (Float.pow 2.0 (float_of_int (bits - 1)))
    (Kripke.count_states m succ)

(* ------------------------------------------------------------------ *)
(* Rendering on int codes against the value-array renderer it
   replaced, kept here as the oracle: every state decoded to an array
   of values and diffed with polymorphic [<>]. *)

let oracle_render (m : Kripke.t) (tr : Kripke.Trace.t) =
  let vars = m.Kripke.vars in
  let buf = Buffer.create 256 in
  let count = ref 0 in
  let prev = ref None in
  let add_state loop_start st =
    incr count;
    if loop_start then Buffer.add_string buf "-- loop starts here --\n";
    Buffer.add_string buf "state 1.";
    Buffer.add_string buf (string_of_int !count);
    Buffer.add_string buf ":\n  ";
    let values = Array.map (fun v -> Kripke.value_of_state v st) vars in
    Array.iteri
      (fun i value ->
        let changed =
          match !prev with None -> true | Some p -> p.(i) <> value
        in
        if changed then begin
          Buffer.add_string buf vars.(i).Kripke.var_name;
          Buffer.add_string buf " = ";
          Buffer.add_string buf (Kripke.string_of_value value);
          Buffer.add_string buf "\n  "
        end)
      values;
    Buffer.add_char buf '\n';
    prev := Some values
  in
  List.iter (add_state false) tr.Kripke.Trace.prefix;
  List.iteri (fun i st -> add_state (i = 0) st) tr.Kripke.Trace.cycle;
  Buffer.contents buf

(* A boolean, a three-constant enum and the range 2..6: the enum and
   the range each leave codes of their width unused. *)
let render_model =
  lazy
    (let b = Kripke.Builder.create () in
     ignore (Kripke.Builder.bool_var b "flag" : Kripke.var);
     ignore (Kripke.Builder.enum_var b "mode" [ "idle"; "busy"; "done" ] : Kripke.var);
     ignore (Kripke.Builder.range_var b "n" 2 6 : Kripke.var);
     Kripke.Builder.add_trans b (Bdd.one (Kripke.Builder.man b));
     Kripke.Builder.build b)

(* The state whose variables hold the given codes, in declaration
   order. *)
let state_of_codes (m : Kripke.t) codes =
  let st = Array.make m.Kripke.nbits false in
  Array.iteri
    (fun i v ->
      Array.iteri
        (fun k b -> st.(b) <- (codes.(i) lsr k) land 1 = 1)
        v.Kripke.bits)
    m.Kripke.vars;
  st

let render m tr = Format.asprintf "%a" (Kripke.Trace.pp m) tr

let prop_render_oracle =
  let state = QCheck2.Gen.(map (fun (f, md, k) -> [| f; md; k |])
                             (triple (int_bound 1) (int_bound 2) (int_bound 4))) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"int-code rendering = value-array rendering"
       ~count:300
       QCheck2.Gen.(pair (list_size (int_range 1 6) state)
                      (list_size (int_range 0 4) state))
       (fun (prefix, cycle) ->
         let m = Lazy.force render_model in
         let tr =
           Kripke.Trace.lasso
             ~prefix:(List.map (state_of_codes m) prefix)
             ~cycle:(List.map (state_of_codes m) cycle)
         in
         render m tr = oracle_render m tr))

let test_render_invalid_code () =
  let m = Lazy.force render_model in
  let valid = state_of_codes m [| 0; 1; 2 |] in
  let bad_enum = state_of_codes m [| 0; 3; 2 |] in
  let bad_range = state_of_codes m [| 1; 1; 5 |] in
  List.iter
    (fun (label, msg, st) ->
      let tr = Kripke.Trace.finite [ valid; st ] in
      Alcotest.check_raises label (Invalid_argument msg) (fun () ->
          ignore (render m tr : string));
      Alcotest.check_raises (label ^ " (oracle)") (Invalid_argument msg)
        (fun () -> ignore (oracle_render m tr : string)))
    [ ("invalid enum code", "Kripke.value_of_state: invalid enum encoding",
       bad_enum);
      ("invalid range code", "Kripke.value_of_state: out of range", bad_range) ]

(* ------------------------------------------------------------------ *)
(* Picking a state: one walk under bit order, per-bit cofactoring
   otherwise.  Both stand for the reference below. *)

(* Cofactor the current-copy bits in index order, taking [false]
   whenever the set allows it, then reject a state the set does not
   hold with the next copy false. *)
let pick_by_bits (m : Kripke.t) set =
  let man = m.Kripke.man in
  let set = Bdd.and_ man set m.Kripke.space in
  if Bdd.is_zero set then None
  else begin
    let st = Array.make m.Kripke.nbits false in
    let cur = ref set in
    for b = 0 to m.Kripke.nbits - 1 do
      let f0 = Bdd.restrict man !cur (2 * b) false in
      if Bdd.is_zero f0 then begin
        st.(b) <- true;
        cur := Bdd.restrict man !cur (2 * b) true
      end
      else cur := f0
    done;
    if not (Bdd.eval man set (fun v -> v mod 2 = 0 && st.(v / 2))) then
      invalid_arg "Kripke.pick_state: set constrains next-state variables";
    Some st
  end

let outcome k = match k () with r -> Ok r | exception Invalid_argument e -> Error e

(* A random order of the [2 * width] variables.  With [bit], a random
   merge of the two copies, each kept in bit order; otherwise a random
   permutation (which may keep bit order too). *)
let random_order ~bit seed width =
  let rng = Random.State.make [| seed |] in
  let n = 2 * width in
  if bit then begin
    let cur = ref 0 and nxt = ref 0 in
    Array.init n (fun _ ->
        if !nxt >= width || (!cur < width && Random.State.bool rng) then begin
          incr cur;
          2 * (!cur - 1)
        end
        else begin
          incr nxt;
          (2 * (!nxt - 1)) + 1
        end)
  end
  else begin
    let order = Array.init n Fun.id in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = order.(i) in
      order.(i) <- order.(j);
      order.(j) <- t
    done;
    order
  end

let keeps_bit_order order =
  let level = Array.make (Array.length order) 0 in
  Array.iteri (fun l v -> level.(v) <- l) order;
  let w = Array.length order / 2 in
  List.for_all
    (fun b ->
      level.(2 * b) < level.((2 * b) + 2)
      && level.((2 * b) + 1) < level.((2 * b) + 3))
    (List.init (max 0 (w - 1)) Fun.id)

let prop_pick_is_per_bit =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"pick_state and pick_successor = per-bit reference"
       ~count:300
       QCheck2.Gen.(
         quad (Models.random_model_gen ~max_states:16 ()) bool int int)
       (fun (rm, bit, seed, set_seed) ->
         let n = rm.Models.graph.Explicit.Egraph.nstates in
         let order = random_order ~bit seed in
         let m, _ = graph_model rm.Models.graph order in
         let man = m.Kripke.man in
         let width = m.Kripke.nbits in
         let rng = Random.State.make [| set_seed |] in
         (* Any codes of the width, those outside [space] included. *)
         let codes =
           List.filter
             (fun _ -> Random.State.bool rng)
             (List.init (1 lsl width) Fun.id)
         in
         let cube copy i =
           List.init width (fun k -> ((2 * k) + copy, (i lsr k) land 1 = 1))
         in
         let set = Bdd.disj man (List.map (fun i -> Bdd.minterm man (cube 0 i)) codes) in
         let nxt = Kripke.nxt_bit m (Random.State.int rng width) in
         (* Sets that constrain a next-copy variable: the reference
            rejects some and picks from others. *)
         let sets =
           [ set; Bdd.one man; Bdd.and_ man set nxt;
             Bdd.and_ man set (Bdd.not_ man nxt); Bdd.or_ man set nxt;
             Bdd.xor man set nxt ]
         in
         let state i = Array.init width (fun k -> (i lsr k) land 1 = 1) in
         m.Kripke.bit_order = keeps_bit_order (order width)
         && List.for_all
              (fun s ->
                outcome (fun () -> Kripke.pick_state m s)
                = outcome (fun () -> pick_by_bits m s)
                && List.for_all
                     (fun i ->
                       let st = state i in
                       outcome (fun () -> Kripke.pick_successor m st s)
                       = outcome (fun () ->
                             pick_by_bits m
                               (Bdd.and_ man (Kripke.successors m st) s)))
                     (List.init n Fun.id))
              sets))

let suite =
  suite
  @ [ prop_successors_are_post;
      Alcotest.test_case "successors share subgraphs" `Quick
        test_successors_share;
      prop_pick_is_per_bit;
      prop_render_oracle;
      Alcotest.test_case "rendering rejects invalid codes" `Quick
        test_render_invalid_code ]
