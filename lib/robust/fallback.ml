type t = {
  model : Kripke.t;
  graph : Explicit.Egraph.t;
  states : Kripke.state array;
  mask : Bdd.t -> bool array;
  fair_states : bool array Lazy.t;
      (* [Explicit.Ectl.fair_states graph]: one SCC decomposition per
         bridge, shared by every spec and every explanation *)
}

let default_threshold = 65536

let fits ?(threshold = default_threshold) (m : Kripke.t) =
  Kripke.count_states m m.Kripke.space <= float_of_int threshold
  && m.Kripke.nbits < Sys.int_size

let build ?max_states m =
  let graph, states, mask = Explicit.Bridge.of_kripke ?max_states m in
  { model = m; graph; states; mask;
    fair_states = lazy (Explicit.Ectl.fair_states graph) }

let nstates t = t.graph.Explicit.Egraph.nstates

let atom t name = t.mask (Kripke.label t.model name)

(* Fair satisfaction masks for one spec: the explanation asks for the
   sets of overlapping subformulas at every step it passes through, and
   each evaluation resolves [Pred] leaves and fair [EG]s over the whole
   graph, so every subformula is evaluated once — for the verdict and
   its trace together when both share the memo. *)
type memo = { owner : t; sat : Ctl.t -> bool array }

let memo t =
  let table = Hashtbl.create 16 in
  { owner = t;
    sat =
      Explicit.Ectl.sat_fair ~fair_states:(Lazy.force t.fair_states)
        ~memo:table t.graph ~atom:(atom t) ~pred:t.mask }

let sat_of ?memo:mm t =
  match mm with
  | None -> (memo t).sat
  | Some mm when mm.owner == t -> mm.sat
  | Some _ -> invalid_arg "Fallback: the memo belongs to another bridge"

let holds ?memo t ~fair formula =
  if fair then
    let set = sat_of ?memo t formula in
    List.for_all (fun i -> set.(i)) t.graph.Explicit.Egraph.init
  else Explicit.Ectl.holds t.graph ~atom:(atom t) ~pred:t.mask formula

(* Trace construction: [Counterex.Explain]'s recursion over graph-node
   indices, lifted to concrete states only at the very end. *)

let explain t ~sat formula ~start =
  let graph = t.graph in
  let fair_mask = Lazy.force t.fair_states in
  let found = function
    | Some path -> path
    | None -> raise (Counterex.Explain.Cannot_explain "no explicit-state path")
  in
  let prefix, cycle =
    Counterex.Explain.explain_with
      {
        sat;
        holds_at = (fun f i -> (sat f).(i));
        fair = (fun mask -> Array.map2 ( && ) mask fair_mask);
        ex = (fun ~f ~start -> found (Explicit.Ewitness.ex graph ~f ~start));
        eu =
          (fun ~f ~g ~start -> found (Explicit.Ewitness.eu graph ~f ~g ~start));
        eg =
          (fun ~f ~start -> found (Explicit.Ewitness.fair_eg graph ~f ~start));
      }
      formula ~start
  in
  let lift = List.map (fun i -> t.states.(i)) in
  Kripke.Trace.lasso ~prefix:(lift prefix) ~cycle:(lift cycle)

let first_init t p = List.find_opt p t.graph.Explicit.Egraph.init

let witness ?memo t formula =
  let sat = sat_of ?memo t in
  let set = sat formula in
  Option.map
    (fun start -> explain t ~sat formula ~start)
    (first_init t (fun i -> set.(i)))

let counterexample ?memo t formula =
  let sat = sat_of ?memo t in
  let set = sat formula in
  Option.map
    (fun start -> explain t ~sat (Ctl.Not formula) ~start)
    (first_init t (fun i -> not set.(i)))
