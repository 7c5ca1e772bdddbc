(* Tests for the packed node store behind [Bdd] (PR 8).

   [Test_bdd] checks the algebra against truth tables; this module
   stresses the representation underneath it: the int-indexed columns,
   the open-addressing unique subtables (growth, rehash), free-list
   recycling across [gc], and the live-heap footprint the store was
   rebuilt to shrink. *)

(* -------------------------------------------------------------------- *)
(* Random boolean expressions (self-contained; fresh manager per case). *)

type expr =
  | Evar of int
  | Enot of expr
  | Eand of expr * expr
  | Eor of expr * expr

let nvars = 6

let expr_gen =
  let open QCheck2.Gen in
  sized
  @@ fix (fun self n ->
         if n <= 0 then map (fun v -> Evar v) (int_bound (nvars - 1))
         else
           let sub = self (n / 2) in
           oneof
             [ map (fun v -> Evar v) (int_bound (nvars - 1));
               map (fun e -> Enot e) (self (n - 1));
               map2 (fun a b -> Eand (a, b)) sub sub;
               map2 (fun a b -> Eor (a, b)) sub sub ])

let rec eval_expr env = function
  | Evar v -> env v
  | Enot e -> not (eval_expr env e)
  | Eand (a, b) -> eval_expr env a && eval_expr env b
  | Eor (a, b) -> eval_expr env a || eval_expr env b

let rec build man = function
  | Evar v -> Bdd.var man v
  | Enot e -> Bdd.not_ man (build man e)
  | Eand (a, b) -> Bdd.and_ man (build man a) (build man b)
  | Eor (a, b) -> Bdd.or_ man (build man a) (build man b)

let env_of_bits bits v = bits land (1 lsl v) <> 0

let agrees man f e =
  let ok = ref true in
  for bits = 0 to (1 lsl nvars) - 1 do
    if Bdd.eval man f (env_of_bits bits) <> eval_expr (env_of_bits bits) e
    then ok := false
  done;
  !ok

(* Signed cubes: a list of (var, polarity).  Duplicates are fine —
   conjunction is idempotent — and [Bdd.cube] only takes positive
   literals, so build both orders by folding. *)
let cube_gen =
  let open QCheck2.Gen in
  list_size (int_range 1 12)
    (pair (int_bound 199) bool)

let build_cube man lits =
  List.fold_left
    (fun acc (v, pos) ->
      Bdd.and_ man acc (if pos then Bdd.var man v else Bdd.nvar man v))
    (Bdd.one man) lits

let prop ?(count = 200) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen f)

(* -------------------------------------------------------------------- *)
(* Properties.                                                          *)

(* Find-or-insert stays canonical while the subtables grow and rehash:
   building the same cube twice — in list order and reversed, before
   and after thousands of unrelated insertions — must return the
   physically same handle. *)
let prop_canonical_growth =
  prop "canonicity survives subtable growth and rehash"
    QCheck2.Gen.(pair cube_gen (list_size (int_range 1 40) cube_gen))
    (fun (probe, noise) ->
      let man = Bdd.create ~unique_size:64 () in
      let a = build_cube man probe in
      (* Force growth/rehash of many subtables. *)
      List.iter (fun c -> ignore (build_cube man c)) noise;
      let b = build_cube man (List.rev probe) in
      Bdd.equal a b && Bdd.id a = Bdd.id b)

(* gc sweeps to the roots, recycles slots through the free list, and a
   rebuilt survivor is the survivor: ids of rooted diagrams are stable
   across collection, and rebuilding one finds the retained node
   rather than allocating a fresh one. *)
let prop_gc_recycles =
  prop "gc keeps rooted handles and recycles swept slots"
    QCheck2.Gen.(pair (list_size (int_range 1 8) expr_gen)
                   (list_size (int_range 1 8) expr_gen))
    (fun (kept, dropped) ->
      let man = Bdd.create ~unique_size:64 () in
      let roots = List.map (fun e -> (build man e, e)) kept in
      List.iter (fun e -> ignore (build man e)) dropped;
      let handle = Bdd.add_root man (fun () -> List.map fst roots) in
      ignore (Bdd.gc man);
      let ok_semantics =
        List.for_all (fun (f, e) -> agrees man f e) roots
      in
      (* Swept slots must be reusable: pile fresh garbage into the
         store and make sure the rooted survivors are untouched. *)
      List.iter (fun e -> ignore (build man e)) dropped;
      let ok_rebuild =
        List.for_all (fun (f, e) -> Bdd.id (build man e) = Bdd.id f) roots
      in
      Bdd.remove_root man handle;
      ok_semantics && ok_rebuild)

(* -------------------------------------------------------------------- *)
(* Unit tests.                                                          *)

let test_unique_size_honored () =
  let big = Bdd.create ~unique_size:(1 lsl 16) () in
  let s = Bdd.stats big in
  Alcotest.(check bool)
    "store preallocated to the hint" true
    (s.Bdd.store_capacity >= 1 lsl 16);
  let small = Bdd.create ~unique_size:8 () in
  let s = Bdd.stats small in
  Alcotest.(check bool)
    "tiny hint clamped to the floor" true
    (s.Bdd.store_capacity >= 8 && s.Bdd.store_capacity <= 4096)

let test_stats_instrumentation () =
  let man = Bdd.create () in
  let f =
    Bdd.conj man (List.init 12 (fun i -> Bdd.var man i))
  in
  ignore (Bdd.or_ man f (Bdd.nvar man 0));
  let s = Bdd.stats man in
  Alcotest.(check bool) "lookups counted" true (s.Bdd.unique_lookups > 0);
  Alcotest.(check bool) "probes >= lookups" true
    (s.Bdd.unique_probes >= s.Bdd.unique_lookups);
  Alcotest.(check bool) "cache stores counted" true (s.Bdd.cache_stores > 0);
  Alcotest.(check bool) "store capacity covers live" true
    (s.Bdd.store_capacity >= s.Bdd.live_nodes);
  Alcotest.(check bool) "unique capacity covers live" true
    (s.Bdd.unique_capacity >= s.Bdd.live_nodes)

(* The words held by a manager's operation caches. *)
let cache_words (s : Bdd.stats) =
  s.Bdd.store_words - (3 * s.Bdd.store_capacity) - s.Bdd.unique_capacity

(* A fresh manager touches only what it uses: its columns, subtables
   and caches hold under 16K words.  Grown to 50K nodes by random
   cubes, the columns cover every node and the caches have doubled
   past their initial size. *)
let test_fresh_store_small () =
  let man = Bdd.create () in
  let fresh = Bdd.stats man in
  if fresh.Bdd.store_words >= 16 * 1024 then
    Alcotest.failf "a fresh manager holds %d words" fresh.Bdd.store_words;
  let st = Random.State.make [| 7 |] in
  let held = ref [] in
  while Bdd.live_nodes man < 50_000 do
    let cube = ref (Bdd.one man) in
    for _ = 1 to 10 do
      let v = Random.State.int st 1000 in
      let lit = if Random.State.bool st then Bdd.var man v else Bdd.nvar man v in
      cube := Bdd.and_ man !cube lit
    done;
    held := !cube :: !held
  done;
  let grown = Bdd.stats man in
  Alcotest.(check bool) "columns cover 50K nodes" true
    (grown.Bdd.store_capacity >= 50_000);
  Alcotest.(check bool) "caches grew" true
    (cache_words grown > cache_words fresh);
  Alcotest.(check bool) "store words add up" true
    (grown.Bdd.store_words
     >= (3 * grown.Bdd.store_capacity) + grown.Bdd.unique_capacity)

(* Footprint regression: the number E16 measures (bench/exp_nodestore).
   Build 20k random 10-literal cubes over 1000 variables, everything
   rooted, collecting every 2000 cubes so the free list recycles the
   chains' transient intermediates instead of growing the columns past
   them.  The boxed seed measured 17.5 live heap words per node on
   this workload (BENCH_nodestore.json); the packed store measures
   ~7.8.  The bound leaves slack for GC jitter while still refusing
   any drift back toward one-object-per-node costs. *)
let test_footprint () =
  Gc.full_major ();
  let w0 = (Gc.stat ()).Gc.live_words in
  let man = Bdd.create () in
  let st = Random.State.make [| 16 |] in
  let cubes = 20_000 and width = 10 and vars = 1000 in
  let held = Array.make cubes (Bdd.one man) in
  let root = Bdd.add_root man (fun () -> Array.to_list held) in
  for i = 0 to cubes - 1 do
    let cube = ref (Bdd.one man) in
    for _ = 1 to width do
      let v = Random.State.int st vars in
      let lit =
        if Random.State.bool st then Bdd.var man v else Bdd.nvar man v
      in
      cube := Bdd.and_ man !cube lit
    done;
    held.(i) <- !cube;
    if i mod 2000 = 1999 then ignore (Bdd.gc man)
  done;
  ignore (Bdd.gc man);
  Bdd.clear_caches man;
  Gc.full_major ();
  let w1 = (Gc.stat ()).Gc.live_words in
  let live = Bdd.live_nodes man in
  let wpn = float_of_int (w1 - w0) /. float_of_int (max 1 live) in
  Bdd.remove_root man root;
  ignore (Sys.opaque_identity held);
  Alcotest.(check bool) "workload is node-heavy" true (live > 100_000);
  if wpn >= 12.0 then
    Alcotest.failf
      "live heap words per node regressed: %.2f (packed store baseline \
       ~7.8, boxed seed was ~17.5)"
      wpn

let suite =
  [
    prop_canonical_growth;
    prop_gc_recycles;
    Alcotest.test_case "unique_size honored" `Quick test_unique_size_honored;
    Alcotest.test_case "store instrumentation" `Quick
      test_stats_instrumentation;
    Alcotest.test_case "fresh store is small and grows" `Quick
      test_fresh_store_small;
    Alcotest.test_case "footprint words per node" `Slow test_footprint;
  ]
