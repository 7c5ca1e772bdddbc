(* Bdd.Snapshot and Server.Persist: the durable warm-state layer.

   The contract under test is handle preservation — any [Bdd.t] valid
   against the dumped manager must be valid, with identical semantics,
   against the loaded one — plus strict validation: a flipped bit, a
   truncated file or a bad magic must raise [Corrupt], never produce a
   quietly wrong manager. *)

module Cache = Server.Cache
module Persist = Server.Persist

let mutex_source =
  {|MODULE main
VAR p : {idle, try, crit};
VAR q : boolean;
ASSIGN
  init(p) := idle;
  next(p) := case
    p = idle : {idle, try};
    p = try  : {try, crit};
    p = crit : idle;
  esac;
  init(q) := FALSE;
  next(q) := !q;
SPEC AG !(p = crit & p = idle)
SPEC EF (p = crit)
|}

(* A manager with some structure in it: a few variables, a formula,
   and a registered root so the nodes survive the dumped manager's
   own GC discipline. *)
let build_manager () =
  let man = Bdd.create ~unique_size:64 () in
  let x = Bdd.var man 0
  and y = Bdd.var man 1
  and z = Bdd.var man 2
  and w = Bdd.var man 3 in
  let f = Bdd.or_ man (Bdd.and_ man x y) (Bdd.xor man z w) in
  let g = Bdd.ite man x (Bdd.not_ man z) (Bdd.imp man y w) in
  let _root = Bdd.add_root man (fun () -> [ f; g ]) in
  (man, f, g)

let assignments =
  (* All 16 valuations of 4 variables. *)
  List.init 16 (fun i -> fun v -> i land (1 lsl v) <> 0)

let same_semantics man man' t =
  List.for_all (fun a -> Bdd.eval man t a = Bdd.eval man' t a) assignments

let test_roundtrip () =
  let man, f, g = build_manager () in
  let blob = Bdd.Snapshot.dump man in
  let man' = Bdd.Snapshot.load blob in
  Alcotest.(check int) "live node count preserved" (Bdd.live_nodes man)
    (Bdd.live_nodes man');
  Alcotest.(check bool) "f evaluates identically" true
    (same_semantics man man' f);
  Alcotest.(check bool) "g evaluates identically" true
    (same_semantics man man' g);
  Alcotest.(check int) "f has the same shape" (Bdd.size man f)
    (Bdd.size man' f);
  (* The loaded manager passes its own GC without losing anything the
     static root pins. *)
  let live = Bdd.live_nodes man' in
  ignore (Bdd.gc man');
  Alcotest.(check bool) "snapshot root survives gc" true
    (Bdd.live_nodes man' <= live && Bdd.eval man' f (fun _ -> true)
     = Bdd.eval man f (fun _ -> true))

let test_zero_new_nodes () =
  let man, f, g = build_manager () in
  let blob = Bdd.Snapshot.dump man in
  let man' = Bdd.Snapshot.load blob in
  let before = Bdd.count_nodes man' in
  (* Re-deriving the same functions must re-find every node in the
     rebuilt unique tables: the whole point of shipping the columns. *)
  let x = Bdd.var man' 0
  and y = Bdd.var man' 1
  and z = Bdd.var man' 2
  and w = Bdd.var man' 3 in
  let f' = Bdd.or_ man' (Bdd.and_ man' x y) (Bdd.xor man' z w) in
  let g' = Bdd.ite man' x (Bdd.not_ man' z) (Bdd.imp man' y w) in
  Alcotest.(check int) "0 new nodes re-deriving snapshotted functions"
    before (Bdd.count_nodes man');
  Alcotest.(check bool) "re-derivation returns the dumped handles" true
    (Bdd.equal f f' && Bdd.equal g g')

let test_order_and_pairs () =
  let man, _, _ = build_manager () in
  Bdd.Reorder.set_pairs man [ (0, 1); (2, 3) ];
  Bdd.Reorder.swap man 0;
  let blob = Bdd.Snapshot.dump man in
  let man' = Bdd.Snapshot.load blob in
  Alcotest.(check (list (pair int int))) "sift pairs preserved"
    (Bdd.Reorder.pairs man) (Bdd.Reorder.pairs man');
  Alcotest.(check (array int)) "variable order preserved"
    (Bdd.Reorder.order man) (Bdd.Reorder.order man')

let flip blob i =
  let b = Bytes.of_string blob in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  Bytes.to_string b

let expect_corrupt what blob =
  match Bdd.Snapshot.load blob with
  | _ -> Alcotest.failf "%s: load accepted a corrupt snapshot" what
  | exception Bdd.Snapshot.Corrupt _ -> ()

let test_corruption_rejected () =
  let man, _, _ = build_manager () in
  let blob = Bdd.Snapshot.dump man in
  expect_corrupt "bad magic" (flip blob 0);
  (* Flip one byte in the digest, then in the payload: both sides of
     the checksum comparison. *)
  expect_corrupt "flipped digest byte" (flip blob 10);
  expect_corrupt "flipped payload byte" (flip blob (String.length blob - 3));
  expect_corrupt "truncated" (String.sub blob 0 (String.length blob / 2));
  expect_corrupt "truncated to header" (String.sub blob 0 24);
  expect_corrupt "empty" ""

let test_save_restore_file () =
  let man, f, _ = build_manager () in
  let path = Filename.temp_file "snap_test" ".bdd" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Bdd.Snapshot.save man ~path;
      let man' = Bdd.Snapshot.restore ~path in
      Alcotest.(check bool) "restored file evaluates identically" true
        (same_semantics man man' f);
      (* No temp file left behind by the atomic write. *)
      let dir = Filename.dirname path and base = Filename.basename path in
      let leftovers =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun n ->
               Astring.String.is_prefix ~affix:(base ^ ".tmp") n)
      in
      Alcotest.(check (list string)) "no temp files leak" [] leftovers)

(* ------------------------------------------------------------------ *)
(* Persist: the snapshot wrapped with the compiled artifact. *)

let check_all compiled =
  (* Run every spec and return the concatenated report text: the
     byte-identity oracle. *)
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  List.iter
    (fun spec ->
      ignore
        (Server.Engine.check_one ppf compiled.Smv.Compile.model
           ~opts:Server.Engine.default ~cancel:(Atomic.make false)
           ~clusters:(fun () -> compiled.Smv.Compile.clusters)
           spec))
    compiled.Smv.Compile.specs;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let with_state_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "persist_test_%d_%d" (Unix.getpid ()) (Random.int 10000))
  in
  Fun.protect
    ~finally:(fun () ->
      match Sys.readdir dir with
      | files ->
        Array.iter
          (fun n -> try Sys.remove (Filename.concat dir n) with _ -> ())
          files;
        (try Unix.rmdir dir with Unix.Unix_error _ -> ())
      | exception Sys_error _ -> ())
    (fun () -> f dir)

let test_persist_roundtrip () =
  with_state_dir @@ fun dir ->
  let compiled = Smv.load_string mutex_source in
  (* Warm the model the way the daemon does before a check: the
     memoised reachable set is part of what the snapshot preserves. *)
  ignore (Kripke.reachable compiled.Smv.Compile.model);
  let expected = check_all compiled in
  let key =
    Cache.digest ~source:mutex_source ~partitioned:false ~static_order:false
  in
  let p = Persist.create ~dir ~debug:false in
  Alcotest.(check bool) "save_entry succeeds" true
    (Persist.save_entry p ~key ~uses:1 compiled);
  Alcotest.(check int) "snapshot counted" 1 (Persist.counters p).Persist.snapshots;
  let path = Filename.concat dir (key ^ ".warm") in
  Alcotest.(check bool) "warm file exists" true (Sys.file_exists path);
  let key', compiled' = Persist.load_entry path in
  Alcotest.(check string) "key roundtrips" key key';
  Alcotest.(check string) "verdicts byte-identical after reload" expected
    (check_all compiled');
  (* The reloaded artifact is warm: checking it a second time reuses
     the memoised reachable set with no new nodes. *)
  let man = compiled'.Smv.Compile.model.Kripke.man in
  Alcotest.(check bool) "reach memo survives the roundtrip" true
    (Kripke.reach_memo compiled'.Smv.Compile.model <> None);
  let nodes = Bdd.count_nodes man in
  ignore (check_all compiled');
  Alcotest.(check int) "0 new nodes on a warm recheck" nodes
    (Bdd.count_nodes man)

let test_persist_rehydrate_and_quarantine () =
  with_state_dir @@ fun dir ->
  let compiled = Smv.load_string mutex_source in
  ignore (check_all compiled);
  let key =
    Cache.digest ~source:mutex_source ~partitioned:false ~static_order:false
  in
  let p = Persist.create ~dir ~debug:false in
  Alcotest.(check bool) "save" true (Persist.save_entry p ~key ~uses:1 compiled);
  (* Drop three bad files beside the good one: a truncated copy, a
     bit-flipped copy, and a valid entry under its own key re-stamped
     with the previous format's magic (its name and checksum still
     match, so only the version check stands between it and
     [Marshal]).  Rehydration must seed the good entry and quarantine
     all three without raising. *)
  let read path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let blob = read (Filename.concat dir (key ^ ".warm")) in
  let write path s =
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc
  in
  write (Filename.concat dir "truncated.warm")
    (String.sub blob 0 (String.length blob / 3));
  write (Filename.concat dir "flipped.warm") (flip blob 12);
  let stale_key =
    Cache.digest ~source:mutex_source ~partitioned:true ~static_order:false
  in
  let stale = Filename.concat dir (stale_key ^ ".warm") in
  Alcotest.(check bool) "save stale" true
    (Persist.save_entry p ~key:stale_key ~uses:1 compiled);
  let stale_blob = read stale in
  write stale
    ("SMVWARM2" ^ String.sub stale_blob 8 (String.length stale_blob - 8));
  let p' = Persist.create ~dir ~debug:false in
  let cache = Cache.create ~capacity:4 in
  let restored = Persist.rehydrate p' cache in
  Alcotest.(check int) "one entry restored" 1 restored;
  Alcotest.(check int) "three files quarantined" 3
    (Persist.counters p').Persist.quarantines;
  Alcotest.(check bool) "restored entry is warm in the pool" true
    (Cache.is_warm cache ~key);
  Alcotest.(check bool) "bad files renamed out of the way" true
    (Sys.file_exists (Filename.concat dir "truncated.warm.quarantined")
    && Sys.file_exists (Filename.concat dir "flipped.warm.quarantined")
    && Sys.file_exists (stale ^ ".quarantined")
    && not (Cache.is_warm cache ~key:stale_key)
    && not (Sys.file_exists (Filename.concat dir "truncated.warm")));
  (* A second rehydrate finds only the good file — quarantined files
     do not come back. *)
  let p'' = Persist.create ~dir ~debug:false in
  let cache2 = Cache.create ~capacity:4 in
  Alcotest.(check int) "quarantined files stay gone" 1
    (Persist.rehydrate p'' cache2)

let test_persist_dirty_tracking () =
  with_state_dir @@ fun dir ->
  let compiled = Smv.load_string mutex_source in
  let key =
    Cache.digest ~source:mutex_source ~partitioned:false ~static_order:false
  in
  let p = Persist.create ~dir ~debug:false in
  let cache = Cache.create ~capacity:4 in
  Alcotest.(check bool) "seed" true (Cache.seed cache ~key ~compiled);
  Persist.tick p cache;
  Alcotest.(check int) "first tick writes" 1 (Persist.counters p).Persist.snapshots;
  Persist.tick p cache;
  Alcotest.(check int) "unchanged entry not rewritten" 1
    (Persist.counters p).Persist.snapshots;
  (* Touch the entry (acquire/release bumps the use count): the next
     tick must rewrite it. *)
  let e, warm = Cache.acquire cache ~key in
  Alcotest.(check bool) "seeded entry is warm" true warm;
  Cache.release cache e;
  Persist.tick p cache;
  Alcotest.(check int) "used entry rewritten" 2
    (Persist.counters p).Persist.snapshots

let suite =
  [
    Alcotest.test_case "snapshot: dump/load roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "snapshot: 0 new nodes re-deriving" `Quick
      test_zero_new_nodes;
    Alcotest.test_case "snapshot: order and sift pairs" `Quick
      test_order_and_pairs;
    Alcotest.test_case "snapshot: corruption rejected" `Quick
      test_corruption_rejected;
    Alcotest.test_case "snapshot: atomic save/restore" `Quick
      test_save_restore_file;
    Alcotest.test_case "persist: artifact roundtrip" `Quick
      test_persist_roundtrip;
    Alcotest.test_case "persist: rehydrate + quarantine" `Quick
      test_persist_rehydrate_and_quarantine;
    Alcotest.test_case "persist: dirty tracking" `Quick
      test_persist_dirty_tracking;
  ]
