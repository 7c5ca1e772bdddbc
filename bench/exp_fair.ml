(* E7 — Section 5: the cost of fair EG.

   CheckFairEG evaluates a greatest fixpoint each of whose iterations
   runs one nested EU fixpoint per fairness constraint, so its cost
   grows with the number of constraints.  The sweeps of its last
   iteration are the onion rings Section 6's witness construction
   descends; the table counts the layers they keep. *)

(* ------------------------------------------------------------------ *)
(* Eviction ablation: op-caches only share work, never change results,
   so a bounded-cache run must produce exactly the same fair-EG verdict
   and the same greedy witness as an unbounded one, while the bounded
   run actually evicts.  One run builds its own model (and manager), so
   results are compared by state count and by the concrete witness
   trace, which are manager-independent.                               *)

let ablation_model ~bits ~k =
  let base = Workloads.ring bits in
  let constraints =
    List.init k (fun i ->
        Ctl.Check.sat base (Ctl.atom (Printf.sprintf "c%d" i)))
  in
  Kripke.with_fairness base constraints

let ablation_run ~bits ~k ~cache_limit =
  Harness.reset_fixpoint_counters ();
  let m = ablation_model ~bits ~k in
  Bdd.set_cache_limit m.Kripke.man cache_limit;
  let bman = m.Kripke.man in
  Bdd.reset_stats bman;
  let egf, secs =
    Harness.time_once (fun () -> Ctl.Fair.eg m m.Kripke.space)
  in
  let witness =
    match Kripke.pick_state m (Bdd.and_ bman m.Kripke.init egf) with
    | None -> None
    | Some start ->
      Some (Counterex.Witness.eg m ~f:m.Kripke.space ~start)
  in
  let stats = Bdd.stats bman in
  (Kripke.count_states m egf, witness, stats, secs)

let eviction_ablation ?(quiet = false) ~bits ~k ~cache_limit () =
  let count_u, wit_u, stats_u, secs_u =
    ablation_run ~bits ~k ~cache_limit:None
  in
  let count_b, wit_b, stats_b, secs_b =
    ablation_run ~bits ~k ~cache_limit:(Some cache_limit)
  in
  let ok = count_u = count_b && wit_u = wit_b in
  let row limit count (stats : Bdd.stats) secs =
    [
      limit;
      Printf.sprintf "%.0f" count;
      string_of_int (Bdd.cache_hits stats);
      string_of_int (Bdd.cache_misses stats);
      string_of_int stats.Bdd.cache_evictions;
      string_of_int stats.Bdd.peak_nodes;
      Harness.seconds_string secs;
    ]
  in
  if not quiet then begin
    Harness.print_table
      ~title:
        (Printf.sprintf
           "E7b: cache-eviction ablation (%d-cell ring, %d constraints, limit %d)"
           bits k cache_limit)
      ~header:
        [
          "cache limit"; "EG states"; "hits"; "misses"; "evictions";
          "peak nodes"; "time";
        ]
      [
        row "unbounded" count_u stats_u secs_u;
        row (string_of_int cache_limit) count_b stats_b secs_b;
      ];
    Harness.note "verdicts and witnesses %s across cache limits%s"
      (if ok then "agree" else "DISAGREE (bug!)")
      (if stats_b.Bdd.cache_evictions = 0 then
         " (warning: the bounded run never evicted)"
       else "");
    Harness.emit_json
      ~experiment:"e7b_eviction_ablation"
      ([
         ("bits", Harness.Int bits);
         ("constraints", Harness.Int k);
         ("cache_limit", Harness.Int cache_limit);
         ("verdicts_agree", Harness.Bool ok);
         ("seconds_unbounded", Harness.Float secs_u);
         ("seconds_bounded", Harness.Float secs_b);
       ]
      @ List.map
          (fun (key, v) -> ("bounded_" ^ key, v))
          (("eviction_count", Harness.Int stats_b.Bdd.cache_evictions)
          :: [
               ("cache_hits", Harness.Int (Bdd.cache_hits stats_b));
               ("cache_misses", Harness.Int (Bdd.cache_misses stats_b));
               ("peak_nodes", Harness.Int stats_b.Bdd.peak_nodes);
             ])
      @ Harness.fixpoint_fields ())
  end;
  ok

(* Tiny deterministic variant for `dune build @bench-smoke`: exercises
   bounded caches end to end and fails loudly on a verdict mismatch. *)
let smoke () =
  let ok = eviction_ablation ~bits:5 ~k:2 ~cache_limit:200 () in
  Format.printf "@.bench-smoke: eviction ablation %s@."
    (if ok then "OK (bounded and unbounded runs agree)" else "FAILED");
  ok

let run ~full =
  let bits = if full then 10 else 8 in
  let ks = if full then [ 1; 2; 3; 4; 6; 8 ] else [ 1; 2; 3; 4 ] in
  let base = Workloads.ring bits in
  let rows =
    List.map
      (fun k ->
        let constraints =
          List.init k (fun i ->
              Ctl.Check.sat base (Ctl.atom (Printf.sprintf "c%d" i)))
        in
        let m = Kripke.with_fairness base constraints in
        let t_eg =
          Harness.estimate_ns (fun () -> Ctl.Fair.eg_rings m m.Kripke.space)
        in
        let _, rings = Ctl.Fair.eg_rings m m.Kripke.space in
        let kept =
          List.fold_left
            (fun n r -> n + Array.length r.Ctl.Fair.layers)
            0 rings
        in
        [ string_of_int k; Harness.ns_string t_eg; string_of_int kept ])
      ks
  in
  Harness.print_table
    ~title:
      (Printf.sprintf "E7: fair EG cost vs number of fairness constraints (%d-cell ring)" bits)
    ~header:[ "constraints"; "fair EG"; "ring layers kept" ]
    rows;
  Harness.note
    "each outer gfp iteration sweeps one nested EU per constraint (Section 5);";
  Harness.note
    "the last iteration's sweeps are the rings the witness descends.";
  ignore
    (eviction_ablation ~bits:(if full then 8 else 6) ~k:2
       ~cache_limit:(if full then 500 else 150)
       ()
      : bool)

let bechamel =
  let m =
    lazy
      (let base = Workloads.ring 8 in
       Kripke.with_fairness base
         (List.init 3 (fun i ->
              Ctl.Check.sat base (Ctl.atom (Printf.sprintf "c%d" i)))))
  in
  Bechamel.Test.make ~name:"e7-fair-eg-ring8-k3"
    (Bechamel.Staged.stage (fun () ->
         let m = Lazy.force m in
         Ctl.Fair.eg m m.Kripke.space))
