(* Dynamic variable reordering: adjacent swaps, sifting sweeps,
   explicit orders and pair groups must all preserve every external
   handle's boolean function — the handles themselves survive because
   swaps mutate nodes in place — while only the diagram shapes (and
   hence sizes) change.

   Property tests mirror test_bdd's scheme: random expressions over a
   small universe, compared against truth-table evaluation after the
   order has been scrambled.  Each test builds a fresh manager because
   reordering is manager-global mutable state. *)

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
  sized
  @@ fix (fun self n ->
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

let rec bdd_of_expr man = function
  | Evar v -> Bdd.var man v
  | Enot e -> Bdd.not_ man (bdd_of_expr man e)
  | Eand (a, b) -> Bdd.and_ man (bdd_of_expr man a) (bdd_of_expr man b)
  | Eor (a, b) -> Bdd.or_ man (bdd_of_expr man a) (bdd_of_expr man b)
  | Exor (a, b) -> Bdd.xor man (bdd_of_expr man a) (bdd_of_expr man b)
  | Etrue -> Bdd.one man
  | Efalse -> Bdd.zero man

let env_of_bits bits v = bits land (1 lsl v) <> 0

(* [f] denotes the same function as [e] on the whole universe. *)
let agrees man f e =
  let ok = ref true in
  for bits = 0 to (1 lsl nvars) - 1 do
    let env = env_of_bits bits in
    if Bdd.eval man f env <> eval_expr env e then ok := false
  done;
  !ok

(* Fresh manager with all [nvars] variables forced into existence, so
   every order below is a permutation of the same level set. *)
let fresh () =
  let man = Bdd.create () in
  for v = 0 to nvars - 1 do
    ignore (Bdd.var man v)
  done;
  man

let prop name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count:200 gen f)

(* -------------------------------------------------------------------- *)
(* Properties: scrambled orders preserve semantics and identity.        *)

let swaps_gen =
  QCheck2.Gen.(
    pair expr_gen (list_size (int_bound 12) (int_bound (nvars - 2))))

let prop_swaps_preserve_eval =
  prop "random swap sequences preserve eval" swaps_gen (fun (e, levels) ->
      let man = fresh () in
      let f = bdd_of_expr man e in
      let id0 = Bdd.id f in
      List.for_all
        (fun l ->
          Bdd.Reorder.swap man l;
          Bdd.id f = id0 && agrees man f e)
        levels
      || QCheck2.Test.fail_report "swap changed the function or the handle")

let prop_sift_preserves_eval =
  prop "sifting preserves eval and sat counts" expr_gen (fun e ->
      let man = fresh () in
      let f = bdd_of_expr man e in
      let count0 = Bdd.sat_count man f nvars in
      let id0 = Bdd.id f in
      Bdd.reorder man;
      Bdd.id f = id0 && agrees man f e && Bdd.sat_count man f nvars = count0)

let order_gen =
  (* A permutation of 0..nvars-1 drawn from random transpositions. *)
  QCheck2.Gen.(
    pair expr_gen
      (list_size (int_bound 8)
         (pair (int_bound (nvars - 1)) (int_bound (nvars - 1)))))

let permutation_of_swaps swaps =
  let ord = Array.init nvars (fun i -> i) in
  List.iter
    (fun (i, j) ->
      let t = ord.(i) in
      ord.(i) <- ord.(j);
      ord.(j) <- t)
    swaps;
  ord

let prop_set_order_preserves_eval =
  prop "set_order installs the order and preserves eval" order_gen
    (fun (e, swaps) ->
      let ord = permutation_of_swaps swaps in
      let man = fresh () in
      let f = bdd_of_expr man e in
      Bdd.Reorder.set_order man ord;
      Bdd.Reorder.order man = ord && agrees man f e)

let prop_transfer_across_orders =
  prop "transfer between differently ordered managers" order_gen
    (fun (e, swaps) ->
      let src = fresh () in
      let f = bdd_of_expr src e in
      (* Destination pre-ordered by an arbitrary permutation: transfer
         maps by variable id, so the copy must denote the same
         function under the destination's unrelated order. *)
      let dst = Bdd.create () in
      Bdd.Reorder.set_order dst (permutation_of_swaps swaps);
      let g = Bdd.with_root src (fun () -> [ f ]) (fun () ->
          Bdd.transfer ~src ~dst f) in
      agrees dst g e
      && Bdd.sat_count dst g nvars = Bdd.sat_count src f nvars
      (* ... and transferring back round-trips to the original node. *)
      && Bdd.equal f (Bdd.transfer ~src:dst ~dst:src g))

(* -------------------------------------------------------------------- *)
(* Unit tests: the swap primitive and explicit orders.                  *)

let test_swap_moves_levels () =
  let man = fresh () in
  Bdd.Reorder.swap man 0;
  Alcotest.(check int) "var 1 now on top" 1 (Bdd.Reorder.var_at_level man 0);
  Alcotest.(check int) "var 0 below it" 0 (Bdd.Reorder.var_at_level man 1);
  Bdd.Reorder.swap man 0;
  Alcotest.(check bool) "double swap restores the order" true
    (Bdd.Reorder.order man = Array.init nvars (fun i -> i))

let test_swap_canonical_after () =
  (* Hash-consing must stay canonical across a swap: rebuilding a
     function after the exchange yields the same node. *)
  let man = fresh () in
  let f = Bdd.and_ man (Bdd.var man 0) (Bdd.var man 1) in
  Bdd.Reorder.swap man 0;
  let g = Bdd.and_ man (Bdd.var man 0) (Bdd.var man 1) in
  Alcotest.(check bool) "rebuilt function is the same node" true
    (Bdd.equal f g)

let test_set_order_validates () =
  let man = fresh () in
  Alcotest.check_raises "not a permutation" (Invalid_argument
    "Bdd.Reorder.set_order: not a permutation") (fun () ->
      Bdd.Reorder.set_order man [| 0; 0; 1; 2; 3 |]);
  Alcotest.check_raises "too short" (Invalid_argument
    "Bdd.Reorder.set_order: order shorter than variable count") (fun () ->
      Bdd.Reorder.set_order man [| 1; 0 |])

let test_set_order_extends () =
  (* A longer order on an empty manager pre-creates the variables. *)
  let man = Bdd.create () in
  Bdd.Reorder.set_order man [| 2; 0; 1 |];
  Alcotest.(check int) "three levels" 3 (Bdd.Reorder.nvars man);
  Alcotest.(check int) "var 2 on top" 2 (Bdd.Reorder.var_at_level man 0);
  Alcotest.(check int) "level of var 1" 2 (Bdd.Reorder.level_of_var man 1)

(* -------------------------------------------------------------------- *)
(* Pair-grouped sifting.                                                *)

(* The copier ∧ (x_i <-> y_i) with all x above all y is the textbook
   exponential order; sifting with (x_i, y_i) declared as pairs must
   keep each pair adjacent and still shrink the diagram. *)
let copier man n =
  let acc = ref (Bdd.one man) in
  for i = 0 to n - 1 do
    acc := Bdd.and_ man !acc (Bdd.iff man (Bdd.var man i) (Bdd.var man (n + i)))
  done;
  !acc

let test_pairs_stay_adjacent () =
  let man = Bdd.create () in
  let n = 6 in
  Bdd.Reorder.set_pairs man (List.init n (fun i -> (i, n + i)));
  let f = copier man n in
  let big = Bdd.size man f in
  Bdd.with_root man (fun () -> [ f ]) (fun () -> Bdd.reorder man);
  List.iter
    (fun i ->
      let la = Bdd.Reorder.level_of_var man i
      and lb = Bdd.Reorder.level_of_var man (n + i) in
      Alcotest.(check int)
        (Printf.sprintf "pair (%d,%d) adjacent" i (n + i))
        1 (abs (la - lb)))
    (List.init n (fun i -> i));
  Alcotest.(check bool)
    (Printf.sprintf "copier shrank (%d -> %d)" big (Bdd.size man f))
    true
    (Bdd.size man f < big / 2);
  Alcotest.(check bool) "function preserved" true
    (let ok = ref true in
     for bits = 0 to (1 lsl (2 * n)) - 1 do
       let env v = bits land (1 lsl v) <> 0 in
       let expected = ref true in
       for i = 0 to n - 1 do
         if env i <> env (n + i) then expected := false
       done;
       if Bdd.eval man f env <> !expected then ok := false
     done;
     !ok)

let test_set_pairs_validates () =
  let man = Bdd.create () in
  Alcotest.check_raises "self pairing" (Invalid_argument
    "Bdd.Reorder.set_pairs: bad pair") (fun () ->
      Bdd.Reorder.set_pairs man [ (3, 3) ]);
  Alcotest.check_raises "double pairing" (Invalid_argument
    "Bdd.Reorder.set_pairs: variable in two pairs") (fun () ->
      Bdd.Reorder.set_pairs man [ (0, 1); (1, 2) ])

(* -------------------------------------------------------------------- *)
(* Interactions: limits, fault injection, validated traces.             *)

let test_limits_abort_mid_sift () =
  let man = Bdd.create () in
  let f = copier man 6 in
  Bdd.with_root man (fun () -> [ f ]) (fun () ->
      let limits = Bdd.Limits.unlimited () in
      Bdd.Limits.cancel limits;
      (match
         Bdd.Limits.with_attached man limits (fun () -> Bdd.reorder man)
       with
      | () -> Alcotest.fail "cancelled reorder did not abort"
      | exception Bdd.Limits.Exhausted info ->
        Alcotest.(check bool) "interrupted breach" true
          (info.Bdd.Limits.breach = Bdd.Limits.Interrupted));
      (* The aborted sweep must leave a canonical manager: the function
         is intact and rebuilding it reproduces the very same node. *)
      Alcotest.(check bool) "function intact after abort" true
        (Bdd.equal f (copier man 6));
      ignore (Bdd.gc man);
      Alcotest.(check bool) "gc after abort" true (Bdd.live_nodes man > 0))

let test_reorder_fault_site () =
  let man = Bdd.create () in
  let f = copier man 4 in
  Bdd.Fault.arm man ~site:Bdd.Fault.Reorder ~after:1;
  Bdd.with_root man (fun () -> [ f ]) (fun () ->
      match Bdd.reorder man with
      | () -> Alcotest.fail "armed reorder fault did not fire"
      | exception Out_of_memory -> ());
  Alcotest.(check int) "fault fired once" 1 (Bdd.Fault.fired man);
  Alcotest.(check bool) "fault disarmed itself" true (Bdd.Fault.armed man = None);
  (* One-shot: the retry runs clean. *)
  Bdd.with_root man (fun () -> [ f ]) (fun () -> Bdd.reorder man);
  Alcotest.(check bool) "retry sifts clean" true
    (Bdd.equal f (copier man 4))

let test_sift_preserves_validated_trace () =
  (* The full pipeline: model-check a false spec, explain it, sift the
     model's manager, and demand the explained trace still validates
     and the verdict has not moved — external handles (the model's
     rooted init / trans / labels) survive the sweep. *)
  let mx = Models.mutex () in
  let m = mx.Models.m in
  let f = Ctl.AG (Ctl.Imp (mx.Models.t1, Ctl.AF mx.Models.c1)) in
  Alcotest.(check bool) "spec is false" false (Ctl.Fair.holds m f);
  let tr =
    match Counterex.Explain.counterexample m f with
    | Some tr -> tr
    | None -> Alcotest.fail "no counterexample"
  in
  Bdd.reorder m.Kripke.man;
  Alcotest.(check bool) "trace validates after sift" true
    (Counterex.Validate.path_ok m tr = Ok ()
    && Counterex.Validate.starts_at m m.Kripke.init tr = Ok ());
  Alcotest.(check bool) "verdict unchanged after sift" false
    (Ctl.Fair.holds m f);
  let tr2 =
    match Counterex.Explain.counterexample m f with
    | Some tr2 -> tr2
    | None -> Alcotest.fail "no counterexample after sift"
  in
  Alcotest.(check bool) "re-explained trace validates" true
    (Counterex.Validate.path_ok m tr2 = Ok ())

let suite =
  [
    prop_swaps_preserve_eval;
    prop_sift_preserves_eval;
    prop_set_order_preserves_eval;
    prop_transfer_across_orders;
    Alcotest.test_case "swap exchanges adjacent levels" `Quick
      test_swap_moves_levels;
    Alcotest.test_case "hash-consing canonical after swap" `Quick
      test_swap_canonical_after;
    Alcotest.test_case "set_order validates input" `Quick
      test_set_order_validates;
    Alcotest.test_case "set_order pre-creates variables" `Quick
      test_set_order_extends;
    Alcotest.test_case "paired sifting keeps pairs adjacent" `Quick
      test_pairs_stay_adjacent;
    Alcotest.test_case "set_pairs validates input" `Quick
      test_set_pairs_validates;
    Alcotest.test_case "limits abort a sweep consistently" `Quick
      test_limits_abort_mid_sift;
    Alcotest.test_case "reorder fault site fires one-shot" `Quick
      test_reorder_fault_site;
    Alcotest.test_case "sifting preserves validated traces" `Quick
      test_sift_preserves_validated_trace;
  ]
