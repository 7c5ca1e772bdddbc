(* Unit and property tests for the ROBDD package.

   Property tests compare every BDD operation against a brute-force
   truth-table evaluation of randomly generated boolean expressions over
   a small variable universe, which exercises canonicity (equivalent
   expressions must produce physically equal diagrams). *)

let man = Bdd.create ()

(* -------------------------------------------------------------------- *)
(* Random boolean expressions and their two interpretations.            *)

type expr =
  | Evar of int
  | Enot of expr
  | Eand of expr * expr
  | Eor of expr * expr
  | Exor of expr * expr
  | Etrue
  | Efalse

let nvars = 5

let expr_gen =
  let open QCheck2.Gen in
  sized @@ fix (fun self n ->
      if n <= 0 then
        oneof
          [ map (fun v -> Evar v) (int_bound (nvars - 1));
            return Etrue; return Efalse ]
      else
        let sub = self (n / 2) in
        oneof
          [ map (fun v -> Evar v) (int_bound (nvars - 1));
            map (fun e -> Enot e) (self (n - 1));
            map2 (fun a b -> Eand (a, b)) sub sub;
            map2 (fun a b -> Eor (a, b)) sub sub;
            map2 (fun a b -> Exor (a, b)) sub sub ])

let rec eval_expr env = function
  | Evar v -> env v
  | Enot e -> not (eval_expr env e)
  | Eand (a, b) -> eval_expr env a && eval_expr env b
  | Eor (a, b) -> eval_expr env a || eval_expr env b
  | Exor (a, b) -> eval_expr env a <> eval_expr env b
  | Etrue -> true
  | Efalse -> false

let rec bdd_in m = function
  | Evar v -> Bdd.var m v
  | Enot e -> Bdd.not_ m (bdd_in m e)
  | Eand (a, b) -> Bdd.and_ m (bdd_in m a) (bdd_in m b)
  | Eor (a, b) -> Bdd.or_ m (bdd_in m a) (bdd_in m b)
  | Exor (a, b) -> Bdd.xor m (bdd_in m a) (bdd_in m b)
  | Etrue -> Bdd.one m
  | Efalse -> Bdd.zero m

let bdd_of_expr = bdd_in man

let env_of_bits bits v = bits land (1 lsl v) <> 0

(* Check two boolean functions agree on the whole universe. *)
let agree f g =
  let ok = ref true in
  for bits = 0 to (1 lsl nvars) - 1 do
    if f (env_of_bits bits) <> g (env_of_bits bits) then ok := false
  done;
  !ok

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count:300 gen f)

(* -------------------------------------------------------------------- *)
(* Unit tests.                                                          *)

let test_constants () =
  Alcotest.(check bool) "zero is zero" true (Bdd.is_zero (Bdd.zero man));
  Alcotest.(check bool) "one is one" true (Bdd.is_one (Bdd.one man));
  Alcotest.(check bool) "zero <> one" false
    (Bdd.equal (Bdd.zero man) (Bdd.one man));
  Alcotest.(check int) "id zero" 0 (Bdd.id (Bdd.zero man));
  Alcotest.(check int) "id one" 1 (Bdd.id (Bdd.one man))

let test_var_eval () =
  let x = Bdd.var man 3 in
  Alcotest.(check bool) "x under x=true" true (Bdd.eval man x (fun v -> v = 3));
  Alcotest.(check bool) "x under x=false" false (Bdd.eval man x (fun _ -> false));
  let nx = Bdd.nvar man 3 in
  Alcotest.(check bool) "~x under x=false" true (Bdd.eval man nx (fun _ -> false))

let test_var_negative () =
  Alcotest.check_raises "negative var" (Invalid_argument "Bdd.var: negative variable")
    (fun () -> ignore (Bdd.var man (-1)))

let test_hash_consing () =
  let a = Bdd.and_ man (Bdd.var man 0) (Bdd.var man 1) in
  let b = Bdd.not_ man (Bdd.or_ man (Bdd.nvar man 0) (Bdd.nvar man 1)) in
  Alcotest.(check bool) "de morgan gives identical node" true (Bdd.equal a b);
  Alcotest.(check int) "same id" (Bdd.id a) (Bdd.id b)

let test_topvar_structure () =
  let f = Bdd.and_ man (Bdd.var man 2) (Bdd.var man 5) in
  Alcotest.(check int) "root is smallest var" 2 (Bdd.topvar man f);
  Alcotest.(check bool) "low is zero" true (Bdd.is_zero (Bdd.low man f));
  Alcotest.(check int) "high root" 5 (Bdd.topvar man (Bdd.high man f))

let test_topvar_constant () =
  Alcotest.check_raises "topvar of constant"
    (Invalid_argument "Bdd.topvar: constant") (fun () ->
      ignore (Bdd.topvar man (Bdd.one man)))

let test_cube () =
  let c = Bdd.cube man [ 4; 1; 1; 2 ] in
  Alcotest.(check bool) "cube true when all set" true
    (Bdd.eval man c (fun v -> List.mem v [ 1; 2; 4 ]));
  Alcotest.(check bool) "cube false when one unset" false
    (Bdd.eval man c (fun v -> List.mem v [ 1; 4 ]));
  Alcotest.(check (list int)) "support" [ 1; 2; 4 ] (Bdd.support man c)

let test_empty_cube () =
  Alcotest.(check bool) "empty cube is true" true (Bdd.is_one (Bdd.cube man []))

let test_conj_disj () =
  let xs = [ Bdd.var man 0; Bdd.var man 1; Bdd.var man 2 ] in
  Alcotest.(check bool) "conj [] = true" true (Bdd.is_one (Bdd.conj man []));
  Alcotest.(check bool) "disj [] = false" true (Bdd.is_zero (Bdd.disj man []));
  Alcotest.(check bool) "conj = cube" true
    (Bdd.equal (Bdd.conj man xs) (Bdd.cube man [ 0; 1; 2 ]))

let test_restrict () =
  let f = Bdd.xor man (Bdd.var man 0) (Bdd.var man 1) in
  let f0 = Bdd.restrict man f 0 false in
  Alcotest.(check bool) "f|x0=0 is x1" true (Bdd.equal f0 (Bdd.var man 1));
  let f1 = Bdd.restrict man f 0 true in
  Alcotest.(check bool) "f|x0=1 is ~x1" true (Bdd.equal f1 (Bdd.nvar man 1))

let test_exists_unit () =
  (* exists x0. (x0 /\ x1) = x1 *)
  let f = Bdd.and_ man (Bdd.var man 0) (Bdd.var man 1) in
  let e = Bdd.exists man (Bdd.cube man [ 0 ]) f in
  Alcotest.(check bool) "exists" true (Bdd.equal e (Bdd.var man 1));
  (* forall x0. (x0 \/ x1) = x1 *)
  let g = Bdd.or_ man (Bdd.var man 0) (Bdd.var man 1) in
  let a = Bdd.forall man (Bdd.cube man [ 0 ]) g in
  Alcotest.(check bool) "forall" true (Bdd.equal a (Bdd.var man 1))

let test_sat_count_unit () =
  let f = Bdd.or_ man (Bdd.var man 0) (Bdd.var man 1) in
  Alcotest.(check (float 1e-9)) "sat_count x0\\/x1 over 3 vars" 6.0
    (Bdd.sat_count man f 3);
  Alcotest.(check (float 1e-9)) "sat_count true" 8.0
    (Bdd.sat_count man (Bdd.one man) 3);
  Alcotest.(check (float 1e-9)) "sat_count false" 0.0
    (Bdd.sat_count man (Bdd.zero man) 3)

let test_sat_count_bad_universe () =
  Alcotest.check_raises "support exceeds universe"
    (Invalid_argument "Bdd.sat_count: support exceeds variable universe")
    (fun () -> ignore (Bdd.sat_count man (Bdd.var man 5) 3))

let test_any_sat () =
  let f = Bdd.and_ man (Bdd.nvar man 0) (Bdd.var man 2) in
  let a = Bdd.any_sat man f in
  Alcotest.(check (list (pair int bool))) "least cube" [ (0, false); (2, true) ] a;
  Alcotest.check_raises "any_sat false" Not_found (fun () ->
      ignore (Bdd.any_sat man (Bdd.zero man)))

let test_fold_sat () =
  let f = Bdd.xor man (Bdd.var man 0) (Bdd.var man 1) in
  let sols =
    Bdd.fold_sat man f [ 0; 1 ] ~init:[] ~f:(fun acc a -> Array.copy a :: acc)
    |> List.rev
  in
  Alcotest.(check int) "two solutions" 2 (List.length sols);
  Alcotest.(check (list (list bool))) "lexicographic order"
    [ [ false; true ]; [ true; false ] ]
    (List.map Array.to_list sols)

(* [g] is [f] with every variable v read as v + d, over variables
   0..n-1 of [f]. *)
let shifted_agrees m f g d n =
  List.for_all
    (fun bits ->
      let env v = (bits lsr v) land 1 = 1 in
      Bdd.eval m g env = Bdd.eval m f (fun v -> env (v + d)))
    (List.init (1 lsl (n + d)) Fun.id)

(* An order that puts a shifted root below its shifted child: x0 /\ ~x2
   shifts to x1 /\ ~x3, and level(x1) = 3 > level(x3) = 1, so [mk]
   cannot rebuild the root and the [ite] fallback must. *)
let test_shift_reordered () =
  let m = Bdd.create () in
  Bdd.Reorder.set_order m [| 0; 3; 2; 1 |];
  let f = Bdd.and_ m (Bdd.var m 0) (Bdd.nvar m 2) in
  let ite_calls = (Bdd.stats m).Bdd.ite.Bdd.calls in
  let g = Bdd.shift m f 1 in
  Alcotest.(check bool) "fallback ran" true
    ((Bdd.stats m).Bdd.ite.Bdd.calls > ite_calls);
  Alcotest.(check bool) "agrees with eval" true (shifted_agrees m f g 1 3);
  Alcotest.(check bool) "x1 /\\ ~x3" true
    (Bdd.equal g (Bdd.and_ m (Bdd.var m 1) (Bdd.nvar m 3)))

(* The variable order is installed once, on the empty manager. *)
let test_set_order_validates () =
  let m = Bdd.create () in
  Bdd.Reorder.set_order m [| 0; 1; 2; 3; 4 |];
  Alcotest.check_raises "not a permutation" (Invalid_argument
    "Bdd.Reorder.set_order: not a permutation") (fun () ->
      Bdd.Reorder.set_order m [| 0; 0; 1; 2; 3 |]);
  Alcotest.check_raises "too short" (Invalid_argument
    "Bdd.Reorder.set_order: order shorter than variable count") (fun () ->
      Bdd.Reorder.set_order m [| 1; 0 |])

let test_set_order_extends () =
  (* A longer order on an empty manager pre-creates the variables. *)
  let m = Bdd.create () in
  Bdd.Reorder.set_order m [| 2; 0; 1 |];
  Alcotest.(check (array int)) "three levels, var 2 on top" [| 2; 0; 1 |]
    (Bdd.Reorder.order m)

let test_set_order_needs_empty () =
  let m = Bdd.create () in
  let f = Bdd.and_ m (Bdd.var m 0) (Bdd.var m 1) in
  Alcotest.check_raises "manager with nodes" (Invalid_argument
    "Bdd.Reorder.set_order: the manager already has nodes") (fun () ->
      Bdd.Reorder.set_order m [| 1; 0 |]);
  Alcotest.(check (array int)) "order untouched" [| 0; 1 |]
    (Bdd.Reorder.order m);
  Alcotest.(check bool) "f still x0 /\\ x1" true
    (Bdd.eval m f (fun _ -> true) && not (Bdd.eval m f (fun v -> v = 0)))

let test_shift_support () =
  let f = Bdd.xor man (Bdd.var man 0) (Bdd.var man 2) in
  let g = Bdd.shift man f 10 in
  Alcotest.(check (list int)) "shifted support" [ 10; 12 ] (Bdd.support man g);
  Alcotest.(check bool) "shifted back" true
    (Bdd.equal f (Bdd.shift man g (-10)))

let test_size () =
  let f = Bdd.xor man (Bdd.var man 0) (Bdd.var man 1) in
  Alcotest.(check int) "xor has 3 nodes" 3 (Bdd.size man f);
  Alcotest.(check int) "constant has 0 nodes" 0 (Bdd.size man (Bdd.one man))

let test_to_dot () =
  let f = Bdd.and_ man (Bdd.var man 0) (Bdd.var man 1) in
  let dot = Bdd.to_dot ~name:(Printf.sprintf "x%d") man f in
  Alcotest.(check bool) "mentions x0" true
    (Astring.String.is_infix ~affix:"x0" dot);
  Alcotest.(check bool) "digraph" true
    (Astring.String.is_prefix ~affix:"digraph" dot)

let test_clear_caches () =
  let f = Bdd.and_ man (Bdd.var man 0) (Bdd.var man 1) in
  Bdd.clear_caches man;
  let g = Bdd.and_ man (Bdd.var man 0) (Bdd.var man 1) in
  Alcotest.(check bool) "canonicity survives cache clear" true (Bdd.equal f g)

(* -------------------------------------------------------------------- *)
(* Property tests.                                                      *)

let prop_eval_agrees =
  prop "bdd eval agrees with expression eval" expr_gen (fun e ->
      let b = bdd_of_expr e in
      agree (fun env -> eval_expr env e) (fun env -> Bdd.eval man b env))

let prop_canonicity =
  prop "truth-table-equivalent expressions share one node"
    QCheck2.Gen.(pair expr_gen expr_gen)
    (fun (e1, e2) ->
      let b1 = bdd_of_expr e1 and b2 = bdd_of_expr e2 in
      let equiv =
        agree (fun env -> eval_expr env e1) (fun env -> eval_expr env e2)
      in
      equiv = Bdd.equal b1 b2)

(* [conj]/[disj] combine as balanced trees; the canonical result must
   be the left fold's, for every list length (empty and singleton
   included). *)
let prop_balanced_folds =
  prop "balanced conj/disj = left folds"
    QCheck2.Gen.(list_size (int_bound 9) expr_gen)
    (fun es ->
      let fs = List.map bdd_of_expr es in
      Bdd.equal (Bdd.conj man fs) (List.fold_left (Bdd.and_ man) (Bdd.one man) fs)
      && Bdd.equal (Bdd.disj man fs)
           (List.fold_left (Bdd.or_ man) (Bdd.zero man) fs))

let prop_not_involution =
  prop "not is an involution" expr_gen (fun e ->
      let b = bdd_of_expr e in
      Bdd.equal b (Bdd.not_ man (Bdd.not_ man b)))

let prop_ite =
  prop "ite agrees with semantics"
    QCheck2.Gen.(triple expr_gen expr_gen expr_gen)
    (fun (ef, eg, eh) ->
      let f = bdd_of_expr ef and g = bdd_of_expr eg and h = bdd_of_expr eh in
      let r = Bdd.ite man f g h in
      agree
        (fun env -> Bdd.eval man r env)
        (fun env ->
          if eval_expr env ef then eval_expr env eg else eval_expr env eh))

(* [ite]'s standard triples: commuted AND/OR operands and an operand
   equal to the condition give the same node, and a commuted repeat of
   an AND is answered from the cache. *)
let prop_standard_triples =
  prop "ite standard triples"
    QCheck2.Gen.(triple expr_gen expr_gen expr_gen)
    (fun (ef, eg, eh) ->
      let f = bdd_of_expr ef and g = bdd_of_expr eg and h = bdd_of_expr eh in
      let fg = Bdd.and_ man f g in
      let misses = (Bdd.stats man).Bdd.ite.Bdd.misses in
      let gf = Bdd.and_ man g f in
      Bdd.equal fg gf
      && (Bdd.stats man).Bdd.ite.Bdd.misses = misses
      && Bdd.equal (Bdd.or_ man f g) (Bdd.or_ man g f)
      && Bdd.equal (Bdd.ite man f f h) (Bdd.or_ man f h)
      && Bdd.equal (Bdd.ite man f g f) fg)

let prop_exists_semantics =
  prop "exists v f = f|v=0 \\/ f|v=1"
    QCheck2.Gen.(pair expr_gen (int_bound (nvars - 1)))
    (fun (e, v) ->
      let f = bdd_of_expr e in
      let lhs = Bdd.exists man (Bdd.cube man [ v ]) f in
      let rhs =
        Bdd.or_ man (Bdd.restrict man f v false) (Bdd.restrict man f v true)
      in
      Bdd.equal lhs rhs)

let prop_forall_dual =
  prop "forall c f = ~exists c ~f"
    QCheck2.Gen.(pair expr_gen (list_size (int_bound 3) (int_bound (nvars - 1))))
    (fun (e, vs) ->
      let f = bdd_of_expr e in
      let c = Bdd.cube man vs in
      Bdd.equal (Bdd.forall man c f)
        (Bdd.not_ man (Bdd.exists man c (Bdd.not_ man f))))

let prop_and_exists =
  prop "and_exists = exists of and"
    QCheck2.Gen.(triple expr_gen expr_gen
                   (list_size (int_bound 3) (int_bound (nvars - 1))))
    (fun (e1, e2, vs) ->
      let f = bdd_of_expr e1 and g = bdd_of_expr e2 in
      let c = Bdd.cube man vs in
      Bdd.equal (Bdd.and_exists man c f g)
        (Bdd.exists man c (Bdd.and_ man f g)))

let prop_shift_eval =
  prop "shift commutes with evaluation" expr_gen (fun e ->
      let f = bdd_of_expr e in
      let g = Bdd.shift man f nvars in
      agree
        (fun env -> Bdd.eval man f env)
        (fun env -> Bdd.eval man g (fun v -> env (v - nvars))))

let prop_sat_count =
  prop "sat_count agrees with brute force" expr_gen (fun e ->
      let f = bdd_of_expr e in
      let count = ref 0 in
      for bits = 0 to (1 lsl nvars) - 1 do
        if eval_expr (env_of_bits bits) e then incr count
      done;
      Float.abs (Bdd.sat_count man f nvars -. float_of_int !count) < 1e-9)

let prop_any_sat =
  prop "any_sat returns a satisfying cube" expr_gen (fun e ->
      let f = bdd_of_expr e in
      if Bdd.is_zero f then true
      else
        let a = Bdd.any_sat man f in
        Bdd.eval man f (fun v ->
            match List.assoc_opt v a with Some b -> b | None -> false))

let prop_fold_sat_count =
  prop "fold_sat enumerates exactly the models" expr_gen (fun e ->
      let f = bdd_of_expr e in
      let vars = List.init nvars Fun.id in
      let n =
        Bdd.fold_sat man f vars ~init:0 ~f:(fun acc a ->
            if eval_expr (fun v -> a.(v)) e then acc + 1 else acc - 1000)
      in
      Float.abs (float_of_int n -. Bdd.sat_count man f nvars) < 1e-9)

let prop_subset =
  prop "subset is implication"
    QCheck2.Gen.(pair expr_gen expr_gen)
    (fun (e1, e2) ->
      let f = bdd_of_expr e1 and g = bdd_of_expr e2 in
      Bdd.subset man f g
      = agree
          (fun env -> not (eval_expr env e1) || eval_expr env e2)
          (fun _ -> true))

(* The implication walk answers as the complement-building test did,
   and allocates nothing. *)
let prop_subset_no_nodes =
  prop "subset = is_zero (diff f g), building no node"
    QCheck2.Gen.(pair expr_gen expr_gen)
    (fun (e1, e2) ->
      let f = bdd_of_expr e1 and g = bdd_of_expr e2 in
      let expected = Bdd.is_zero (Bdd.diff man f g) in
      let before = Bdd.count_nodes man in
      let got = Bdd.subset man f g in
      got = expected && Bdd.count_nodes man = before)

(* [cofactor_shift] is the shift of the cofactor by its pinned
   literals, whatever is pinned. *)
let prop_cofactor_shift =
  prop "cofactor_shift = shift of the restriction"
    QCheck2.Gen.(pair expr_gen (array_size (return nvars) (int_range (-1) 1)))
    (fun (e, pin) ->
      let f = bdd_of_expr e in
      let restricted = ref f in
      Array.iteri
        (fun v p -> if p >= 0 then restricted := Bdd.restrict man !restricted v (p = 1))
        pin;
      Bdd.equal
        (Bdd.cofactor_shift man f ~pin ~d:nvars)
        (Bdd.shift man !restricted nvars))

let prop_support_sound =
  prop "restricting a non-support variable is the identity"
    QCheck2.Gen.(pair expr_gen (int_bound (nvars - 1)))
    (fun (e, v) ->
      let f = bdd_of_expr e in
      List.mem v (Bdd.support man f)
      || Bdd.equal f (Bdd.restrict man f v true)
         && Bdd.equal f (Bdd.restrict man f v false))

let prop_set_order_eval =
  (* A permutation of 0..nvars-1 drawn from random transpositions. *)
  let gen =
    QCheck2.Gen.(
      pair expr_gen
        (list_size (int_bound 8)
           (pair (int_bound (nvars - 1)) (int_bound (nvars - 1)))))
  in
  prop "set_order installs the order and preserves eval" gen
    (fun (e, swaps) ->
      let ord = Array.init nvars Fun.id in
      List.iter
        (fun (i, j) ->
          let t = ord.(i) in
          ord.(i) <- ord.(j);
          ord.(j) <- t)
        swaps;
      let m = Bdd.create () in
      Bdd.Reorder.set_order m ord;
      let f = bdd_in m e in
      Bdd.Reorder.order m = ord
      && agree (Bdd.eval m f) (fun env -> eval_expr env e))

let suite =
  [
    Alcotest.test_case "constants" `Quick test_constants;
    Alcotest.test_case "var eval" `Quick test_var_eval;
    Alcotest.test_case "negative var rejected" `Quick test_var_negative;
    Alcotest.test_case "hash consing" `Quick test_hash_consing;
    Alcotest.test_case "structure accessors" `Quick test_topvar_structure;
    Alcotest.test_case "topvar on constant" `Quick test_topvar_constant;
    Alcotest.test_case "cube" `Quick test_cube;
    Alcotest.test_case "empty cube" `Quick test_empty_cube;
    Alcotest.test_case "conj/disj" `Quick test_conj_disj;
    Alcotest.test_case "restrict" `Quick test_restrict;
    Alcotest.test_case "exists/forall" `Quick test_exists_unit;
    Alcotest.test_case "sat_count" `Quick test_sat_count_unit;
    Alcotest.test_case "sat_count bad universe" `Quick test_sat_count_bad_universe;
    Alcotest.test_case "any_sat" `Quick test_any_sat;
    Alcotest.test_case "fold_sat" `Quick test_fold_sat;
    Alcotest.test_case "shift under a reordered manager" `Quick
      test_shift_reordered;
    Alcotest.test_case "set_order validates input" `Quick
      test_set_order_validates;
    Alcotest.test_case "set_order pre-creates variables" `Quick
      test_set_order_extends;
    Alcotest.test_case "set_order on a non-empty manager raises" `Quick
      test_set_order_needs_empty;
    Alcotest.test_case "shift support" `Quick test_shift_support;
    Alcotest.test_case "size" `Quick test_size;
    Alcotest.test_case "to_dot" `Quick test_to_dot;
    Alcotest.test_case "clear caches" `Quick test_clear_caches;
    prop_eval_agrees;
    prop_canonicity;
    prop_balanced_folds;
    prop_not_involution;
    prop_ite;
    prop_standard_triples;
    prop_exists_semantics;
    prop_forall_dual;
    prop_and_exists;
    prop_shift_eval;
    prop_set_order_eval;
    prop_sat_count;
    prop_any_sat;
    prop_fold_sat_count;
    prop_subset;
    prop_subset_no_nodes;
    prop_cofactor_shift;
    prop_support_sound;
  ]

(* ------------------------------------------------------------------ *)
(* Generalized cofactor (constrain).                                   *)

let prop_constrain_agrees_on_care_set =
  prop "c /\\ constrain f c = c /\\ f"
    QCheck2.Gen.(pair expr_gen expr_gen)
    (fun (ef, ec) ->
      let f = bdd_of_expr ef and c = bdd_of_expr ec in
      QCheck2.assume (not (Bdd.is_zero c));
      Bdd.equal
        (Bdd.and_ man c (Bdd.constrain man f c))
        (Bdd.and_ man c f))

let prop_constrain_self =
  prop "constrain f f = true (f satisfiable)" expr_gen (fun ef ->
      let f = bdd_of_expr ef in
      QCheck2.assume (not (Bdd.is_zero f));
      Bdd.is_one (Bdd.constrain man f f))

let prop_constrain_true =
  prop "constrain f true = f" expr_gen (fun ef ->
      let f = bdd_of_expr ef in
      Bdd.equal (Bdd.constrain man f (Bdd.one man)) f)

let test_constrain_empty_care () =
  Alcotest.check_raises "empty care set"
    (Invalid_argument "Bdd.constrain: care set is empty") (fun () ->
      ignore (Bdd.constrain man (Bdd.var man 0) (Bdd.zero man)))

let test_constrain_shrinks () =
  (* Constraining an xor chain to a cube collapses it to a literal. *)
  let f = Bdd.xor man (Bdd.var man 0) (Bdd.var man 1) in
  let c = Bdd.cube man [ 0 ] in
  let r = Bdd.constrain man f c in
  Alcotest.(check bool) "collapsed to !x1" true
    (Bdd.equal r (Bdd.nvar man 1))

let constrain_suite =
  [
    prop_constrain_agrees_on_care_set;
    prop_constrain_self;
    prop_constrain_true;
    Alcotest.test_case "constrain empty care" `Quick test_constrain_empty_care;
    Alcotest.test_case "constrain shrinks" `Quick test_constrain_shrinks;
  ]

(* ------------------------------------------------------------------ *)
(* Manager statistics, bounded caches, and GC.  These use private
   managers: the shared [man] above accumulates state across tests.    *)

let test_stats_counters () =
  let m = Bdd.create () in
  let f = Bdd.and_ m (Bdd.var m 0) (Bdd.var m 1) in
  let g = Bdd.or_ m (Bdd.var m 2) f in
  ignore (Bdd.exists m (Bdd.cube m [ 0 ]) g : Bdd.t);
  let s = Bdd.stats m in
  Alcotest.(check bool) "ite called" true (s.Bdd.ite.Bdd.calls > 0);
  Alcotest.(check bool) "exists called" true (s.Bdd.exists.Bdd.calls > 0);
  Alcotest.(check bool) "misses counted" true (Bdd.cache_misses s > 0);
  Alcotest.(check bool) "live nodes" true (s.Bdd.live_nodes > 2);
  Alcotest.(check bool) "peak >= live" true
    (s.Bdd.peak_nodes >= s.Bdd.live_nodes);
  (* Recomputing an already-cached operation hits. *)
  let before = (Bdd.stats m).Bdd.ite.Bdd.hits in
  ignore (Bdd.and_ m (Bdd.var m 0) (Bdd.var m 1) : Bdd.t);
  Alcotest.(check bool) "repeat op hits cache" true
    ((Bdd.stats m).Bdd.ite.Bdd.hits > before);
  Bdd.reset_stats m;
  let z = Bdd.stats m in
  Alcotest.(check int) "reset zeroes calls" 0 z.Bdd.ite.Bdd.calls;
  Alcotest.(check int) "reset zeroes hits" 0 (Bdd.cache_hits z);
  Alcotest.(check int) "peak restarts from live" z.Bdd.live_nodes
    z.Bdd.peak_nodes

let test_shift_negative () =
  let f = Bdd.and_ man (Bdd.var man 0) (Bdd.var man 1) in
  Alcotest.check_raises "negative target rejected"
    (Invalid_argument "Bdd.shift: negative target variable")
    (fun () -> ignore (Bdd.shift man f (-1)));
  (* Only the support matters: a shift that is negative below it is
     fine. *)
  let g = Bdd.var man 3 in
  Alcotest.(check bool) "in-range target accepted" true
    (Bdd.equal (Bdd.shift man g (-3)) (Bdd.var man 0))

(* [gc] recycles swept handles, so a shift cached before it must not
   answer for a new diagram that lands on an old handle. *)
let test_shift_after_gc () =
  let m = Bdd.create () in
  let f = Bdd.and_ m (Bdd.var m 0) (Bdd.nvar m 2) in
  ignore (Bdd.shift m f 1);
  ignore (Bdd.gc m : int);
  (* Allocate one-node diagrams until one lands on [f]'s swept slot. *)
  let rec reuse k =
    let h = Bdd.var m k in
    if Bdd.id h = Bdd.id f then (k, h) else reuse (k + 1)
  in
  let k, h = reuse 4 in
  Alcotest.(check bool) "fresh result after gc" true
    (Bdd.equal (Bdd.shift m h 1) (Bdd.var m (k + 1)))

(* The walk's memo lives on the manager: a parity diagram (two nodes
   per level, 2^40 paths) is walked once per node, in a fresh manager
   and in one restored from a snapshot; a pinned variable is a step to
   one child, and a negative target is rejected. *)
let test_cofactor_shift_memo () =
  let n = 40 in
  let m = Bdd.create () in
  let parity = List.fold_left (Bdd.xor m) (Bdd.zero m) (List.init n (Bdd.var m)) in
  let check m label =
    Alcotest.(check bool) label true
      (Bdd.equal
         (Bdd.cofactor_shift m parity ~pin:[||] ~d:n)
         (Bdd.shift m parity n));
    Alcotest.(check bool) (label ^ ", pinned") true
      (Bdd.equal
         (Bdd.cofactor_shift m parity ~pin:[| 1 |] ~d:n)
         (Bdd.shift m (Bdd.restrict m parity 0 true) n))
  in
  check m "fresh manager";
  let root = Bdd.add_root m (fun () -> [ parity ]) in
  let restored = Bdd.Snapshot.load (Bdd.Snapshot.dump m) in
  Bdd.remove_root m root;
  check restored "restored manager";
  Alcotest.check_raises "negative target rejected"
    (Invalid_argument "Bdd.cofactor_shift: negative target variable")
    (fun () -> ignore (Bdd.cofactor_shift m parity ~pin:[||] ~d:(-1)))

let test_minterm () =
  let lits = [ (3, false); (0, true); (2, true) ] in
  let expect =
    Bdd.conj man [ Bdd.nvar man 3; Bdd.var man 0; Bdd.var man 2 ]
  in
  Alcotest.(check bool) "conjunction of literals" true
    (Bdd.equal (Bdd.minterm man lits) expect);
  Alcotest.(check bool) "repeat is idempotent" true
    (Bdd.equal
       (Bdd.minterm man [ (1, true); (0, false); (1, true) ])
       (Bdd.and_ man (Bdd.var man 1) (Bdd.nvar man 0)));
  Alcotest.(check bool) "clash is false" true
    (Bdd.is_zero (Bdd.minterm man [ (1, true); (2, false); (1, false) ]));
  Alcotest.(check bool) "empty is true" true (Bdd.is_one (Bdd.minterm man []))

let test_eviction_canonicity () =
  let m = Bdd.create ~cache_limit:4 () in
  (* Enough distinct operations to overflow a 4-entry cache many times
     over; canonicity must be unaffected because only caches, never the
     unique table, are dropped. *)
  let xs = List.init 8 (fun i -> Bdd.var m i) in
  let chain = List.fold_left (Bdd.xor m) (Bdd.zero m) xs in
  let chain' = List.fold_right (fun x acc -> Bdd.xor m acc x) xs (Bdd.zero m) in
  Alcotest.(check bool) "xor chains share one node" true
    (Bdd.equal chain chain');
  Alcotest.(check bool) "evictions happened" true
    ((Bdd.stats m).Bdd.cache_evictions > 0);
  Alcotest.check_raises "zero limit rejected"
    (Invalid_argument "Bdd.set_cache_limit: non-positive limit")
    (fun () -> Bdd.set_cache_limit m (Some 0))

let test_gc () =
  let m = Bdd.create () in
  let keep = Bdd.xor m (Bdd.var m 0) (Bdd.var m 1) in
  let keep_id = Bdd.id keep in
  let root = Bdd.add_root m (fun () -> [ keep ]) in
  (* Garbage: a large cube we drop on the floor. *)
  ignore (Bdd.cube m (List.init 20 (fun i -> i + 2)) : Bdd.t);
  let live_before = Bdd.live_nodes m in
  let collected = Bdd.gc m in
  Alcotest.(check bool) "gc collected the dead cube" true (collected >= 20);
  Alcotest.(check int) "live = before - collected"
    (live_before - collected) (Bdd.live_nodes m);
  (* The kept diagram must still be canonical: rebuilding the same
     function yields the same node. *)
  let again = Bdd.xor m (Bdd.var m 0) (Bdd.var m 1) in
  Alcotest.(check bool) "kept root still canonical" true
    (Bdd.equal keep again);
  Alcotest.(check int) "same physical id" keep_id (Bdd.id again);
  let s = Bdd.stats m in
  Alcotest.(check int) "gc runs counted" 1 s.Bdd.gc_runs;
  Alcotest.(check int) "collected counted" collected s.Bdd.gc_collected;
  (* After removing the root the kept diagram becomes garbage too. *)
  Bdd.remove_root m root;
  Alcotest.(check bool) "unrooted nodes swept" true (Bdd.gc m > 0);
  Alcotest.(check int) "only constants and vars' nodes remain" 0
    (Bdd.live_nodes m)

let test_with_root () =
  let m = Bdd.create () in
  let f = Bdd.and_ m (Bdd.var m 0) (Bdd.var m 1) in
  let inside =
    Bdd.with_root m (fun () -> [ f ]) (fun () ->
        ignore (Bdd.gc m : int);
        Bdd.equal f (Bdd.and_ m (Bdd.var m 0) (Bdd.var m 1)))
  in
  Alcotest.(check bool) "rooted across gc inside with_root" true inside;
  (* Provider unregistered on exit: now f is garbage. *)
  ignore (Bdd.gc m : int);
  Alcotest.(check int) "swept after with_root returns" 0 (Bdd.live_nodes m)

let test_any_sat_total () =
  let f = Bdd.and_ man (Bdd.nvar man 0) (Bdd.var man 2) in
  let a = Bdd.any_sat_total man f ~vars:[ 0; 1; 2; 3 ] in
  Alcotest.(check (list (pair int bool))) "total, don't-cares pinned false"
    [ (0, false); (1, false); (2, true); (3, false) ]
    a;
  Alcotest.(check (list (pair int bool))) "tautology over two vars"
    [ (0, false); (1, false) ]
    (Bdd.any_sat_total man (Bdd.one man) ~vars:[ 1; 0 ]);
  Alcotest.check_raises "support must be covered"
    (Invalid_argument "Bdd.any_sat_total: support not contained in vars")
    (fun () -> ignore (Bdd.any_sat_total man f ~vars:[ 0; 1 ]));
  Alcotest.check_raises "constant false"
    Not_found
    (fun () -> ignore (Bdd.any_sat_total man (Bdd.zero man) ~vars:[ 0 ]))

let stats_suite =
  [
    Alcotest.test_case "stats counters" `Quick test_stats_counters;
    Alcotest.test_case "shift negative target" `Quick test_shift_negative;
    Alcotest.test_case "shift after gc" `Quick test_shift_after_gc;
    Alcotest.test_case "cofactor_shift memo" `Quick test_cofactor_shift_memo;
    Alcotest.test_case "minterm" `Quick test_minterm;
    Alcotest.test_case "eviction canonicity" `Quick test_eviction_canonicity;
    Alcotest.test_case "gc" `Quick test_gc;
    Alcotest.test_case "with_root" `Quick test_with_root;
    Alcotest.test_case "any_sat_total" `Quick test_any_sat_total;
  ]

let suite = suite @ constrain_suite @ stats_suite
