(* The in-process side of the benchmark (perfbench/run.py).

     probe.exe oracle MODEL.smv [FORMULA...]
       Expected verdicts for the model's SPECs and for each extra
       formula, decided directly by the library (Ctl.Fair.holds, the
       call the CLI's default path makes) and, when the state space has
       at most [explicit_states] states, cross-checked against the
       explicit-state checker.  Also gives, per spec, whether the CLI must
       print a trace for it: one for each false spec and each true
       existential spec (the rule of [existential] below, decided from the
       verdict and the formula's shape, not by building the trace).
       Prints one JSON line
       {"base","extra","base_traces","extra_traces","explicit"}; a traces
       string holds '1' where a spec needs a trace and '0' elsewhere.

     probe.exe trace MODEL.smv SPANS.json
       One check of the model, run through the library in the order the
       CLI uses (parse, compile, then per spec: verdict, trace, render,
       certify), with a span around every layer call.  Each span carries
       the Bdd.stats and fixpoint-counter deltas taken at its own
       boundaries.  Spans are kept in memory and written to SPANS.json at
       the end; stdout gets one JSON line with the verdict string and
       trace lengths, which run.py compares against the CLI's output. *)

let read_file path = In_channel.with_open_bin path In_channel.input_all
let letter holds = if holds then 'T' else 'F'

let verdicts_of holds =
  String.of_seq (List.to_seq (List.map letter holds))

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

(* ---------------------------------------------------------------- *)
(* Oracle *)

(* Server.Engine's rule: a true existential spec gets a witness, any
   false spec a counterexample; a true universal spec gets no trace. *)
let rec existential = function
  | Ctl.EX _ | Ctl.EF _ | Ctl.EG _ | Ctl.EU _ -> true
  | Ctl.Not f -> not (existential f)
  | Ctl.True | Ctl.False | Ctl.Atom _ | Ctl.Pred _ | Ctl.And _ | Ctl.Or _
  | Ctl.Imp _ | Ctl.Iff _ | Ctl.AX _ | Ctl.AF _ | Ctl.AG _ | Ctl.AU _ ->
    false

(* Large enough for counter-10 and the small serve-mix models; past
   this the explicit checker takes seconds per model (arbiter-6: 17 s),
   too long to run in every benchmark run. *)
let explicit_states = 4096

let oracle path formulas =
  let c = Smv.load_string (read_file path) in
  let m = c.Smv.Compile.model in
  let base = List.map snd c.Smv.Compile.specs in
  let extra = List.map (Smv.Compile.compile_expr c) formulas in
  let symbolic = List.map (Ctl.Fair.holds m) (base @ extra) in
  let explicit =
    if Robust.Fallback.fits ~threshold:explicit_states m then begin
      let fb = Robust.Fallback.build m in
      let expl = List.map (Robust.Fallback.holds fb ~fair:true) (base @ extra) in
      if expl <> symbolic then
        fail "oracle: symbolic %s and explicit-state %s verdicts disagree on %s"
          (verdicts_of symbolic) (verdicts_of expl) path;
      true
    end
    else false
  in
  let all = verdicts_of symbolic in
  let traces =
    String.of_seq
      (List.to_seq
         (List.map2
            (fun spec holds -> if existential spec || not holds then '1' else '0')
            (base @ extra) symbolic))
  in
  let nb = List.length base in
  let split s = (String.sub s 0 nb, String.sub s nb (String.length s - nb)) in
  let base_v, extra_v = split all and base_t, extra_t = split traces in
  Printf.printf
    "{\"base\":%S,\"extra\":%S,\"base_traces\":%S,\"extra_traces\":%S,\"explicit\":%b}\n"
    base_v extra_v base_t extra_t explicit

(* ---------------------------------------------------------------- *)
(* Traced run *)

type snap = {
  bdd : Bdd.stats option;
  check : Ctl.Check.fixpoint_stats;
  fair : Ctl.Fair.fixpoint_stats;
}

type span = {
  id : int;
  name : string;
  parent : int;
  req : int;
  start : float;
  stop : float;
  before : snap;
  after : snap;
}

let man : Bdd.man option ref = ref None
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0

let snap () =
  {
    bdd = Option.map Bdd.stats !man;
    check = Ctl.Check.fixpoint_stats ();
    fair = Ctl.Fair.fixpoint_stats ();
  }

let span ?(req = -1) name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  let before = snap () in
  let start = Bdd.now_monotonic () in
  let r = f () in
  let stop = Bdd.now_monotonic () in
  let after = snap () in
  stack := List.tl !stack;
  spans := { id; name; parent; req; start; stop; before; after } :: !spans;
  r

(* Counter deltas over a span; a span that created the manager (the
   compile step) counts from zero. *)
let counters s =
  let d f = f s.after - f s.before in
  let b g = function Some st -> g st | None -> 0 in
  let bd g = d (fun x -> b g x.bdd) in
  let op (o : Bdd.op_stats) = (o.Bdd.hits, o.Bdd.misses) in
  let sum_ops f (st : Bdd.stats) =
    List.fold_left
      (fun acc o -> acc + f (op o))
      0
      [ st.Bdd.ite; st.Bdd.exists; st.Bdd.forall; st.Bdd.relprod; st.Bdd.constrain ]
  in
  let at g = b g s.after.bdd in
  [
    ("cache_hits", bd (sum_ops fst));
    ("cache_misses", bd (sum_ops snd));
    ("cache_stores", bd (fun st -> st.Bdd.cache_stores));
    ("cache_evictions", bd (fun st -> st.Bdd.cache_evictions));
    ("relprod_hits", bd (fun st -> st.Bdd.relprod.Bdd.hits));
    ("relprod_misses", bd (fun st -> st.Bdd.relprod.Bdd.misses));
    ("unique_lookups", bd (fun st -> st.Bdd.unique_lookups));
    ("unique_probes", bd (fun st -> st.Bdd.unique_probes));
    ("new_nodes", bd (fun st -> st.Bdd.total_nodes));
    ("gc_runs", bd (fun st -> st.Bdd.gc_runs));
    ("live_nodes", at (fun st -> st.Bdd.live_nodes));
    ("peak_nodes", at (fun st -> st.Bdd.peak_nodes));
    ("unique_capacity", at (fun st -> st.Bdd.unique_capacity));
    ("eu_iterations", d (fun x -> x.check.Ctl.Check.eu_iterations));
    ("eg_iterations", d (fun x -> x.check.Ctl.Check.eg_iterations));
    ("ring_layers",
      d (fun x -> x.check.Ctl.Check.ring_layers + x.fair.Ctl.Fair.ring_layers));
    ("fair_outer_iterations", d (fun x -> x.fair.Ctl.Fair.outer_iterations));
  ]

let write_spans path =
  let oc = open_out_bin path in
  output_string oc "[";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"req\":%d,\"start\":%.9f,\"end\":%.9f,\"counters\":{%s}}"
        s.id s.name s.parent s.req s.start s.stop
        (String.concat ","
           (List.map (fun (k, v) -> Printf.sprintf "%S:%d" k v) (counters s))))
    (List.rev !spans);
  output_string oc "]\n";
  close_out oc

(* The CLI's default one-shot path (Server.Engine.check_one with
   --certify, fair semantics, the Emerson-Lei engine and no budgets),
   minus the recovery ladder, which a check without breaches never
   enters. *)
let trace path spans_out =
  let engine = Ctl.Fair.El in
  let cancel = Atomic.make false in
  let holds_acc = ref [] and lengths = ref [] and bytes = ref 0 in
  let cert_failed = ref 0 in
  span "check" (fun () ->
      let prog =
        span "smv.parse" (fun () -> Smv.Parser.program (read_file path))
      in
      let c =
        span "smv.compile" (fun () ->
            let c = Smv.Compile.compile ~partitioned:false ~static_order:false prog in
            man := Some c.Smv.Compile.model.Kripke.man;
            c)
      in
      let m = c.Smv.Compile.model in
      let mn = m.Kripke.man in
      let (_ : Bdd.root) = Bdd.add_root mn (fun () -> c.Smv.Compile.clusters) in
      List.iteri
        (fun req (_, spec) ->
          span ~req "spec" (fun () ->
              let preds = ref [] in
              ignore (Ctl.map_pred (fun b -> preds := b :: !preds; b) spec);
              Bdd.with_root mn (fun () -> !preds) @@ fun () ->
              let limits = Bdd.Limits.create ~cancel () in
              let holds =
                span ~req "ctl.verdict" (fun () ->
                    Bdd.Limits.with_attached mn limits (fun () ->
                        Bdd.Reorder.with_checkpoints mn (fun () ->
                            Ctl.Fair.holds ~limits ~engine m spec)))
              in
              holds_acc := holds :: !holds_acc;
              if existential spec || not holds then
                let tr =
                  span ~req "counterex.witness" (fun () ->
                      Bdd.Limits.with_attached mn limits (fun () ->
                          if holds then Counterex.Explain.witness ~limits ~engine m spec
                          else Counterex.Explain.counterexample ~limits ~engine m spec))
                in
                match tr with
                | None -> ()
                | Some tr -> (
                  let text =
                    span ~req "kripke.render" (fun () ->
                        Format.asprintf "%a@." (Kripke.Trace.pp m) tr)
                  in
                  bytes := !bytes + String.length text;
                  lengths := Kripke.Trace.length tr :: !lengths;
                  let climits = Bdd.Limits.create ~cancel () in
                  match
                    span ~req "robust.certify" (fun () ->
                        if holds then Robust.Certify.witness ~limits:climits ~engine m spec tr
                        else Robust.Certify.counterexample ~limits:climits ~engine m spec tr)
                  with
                  | Ok () -> ()
                  | Error _ -> incr cert_failed)))
        c.Smv.Compile.specs);
  write_spans spans_out;
  let holds = List.rev !holds_acc in
  Printf.printf
    "{\"verdicts\":%S,\"exit\":%d,\"trace_lengths\":[%s],\"trace_bytes\":%d,\"cert_failed\":%d}\n"
    (verdicts_of holds)
    (if !cert_failed > 0 then 3 else if List.mem false holds then 1 else 0)
    (String.concat "," (List.rev_map string_of_int !lengths))
    !bytes !cert_failed

let () =
  match Array.to_list Sys.argv with
  | _ :: "oracle" :: path :: formulas -> oracle path formulas
  | [ _; "trace"; path; spans_out ] -> trace path spans_out
  | _ ->
    prerr_endline
      "usage: probe.exe oracle MODEL.smv [FORMULA...] | probe.exe trace MODEL.smv SPANS.json";
    exit 2
