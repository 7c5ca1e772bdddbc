type t = {
  model : Kripke.t;
  graph : Explicit.Egraph.t;
  states : Kripke.state array;
  mask : Bdd.t -> bool array;
}

let default_threshold = 65536

let fits ?(threshold = default_threshold) (m : Kripke.t) =
  Kripke.count_states m m.Kripke.space <= float_of_int threshold

let build ?max_states m =
  let graph, states, mask = Explicit.Bridge.of_kripke ?max_states m in
  { model = m; graph; states; mask }

let nstates t = t.graph.Explicit.Egraph.nstates

let atom t name = t.mask (Kripke.label t.model name)

let holds t ~fair formula =
  if fair then
    Explicit.Ectl.holds_fair t.graph ~atom:(atom t) ~pred:t.mask formula
  else Explicit.Ectl.holds t.graph ~atom:(atom t) ~pred:t.mask formula

(* Trace construction: [Counterex.Explain]'s recursion over graph-node
   indices, lifted to concrete states only at the very end. *)

let sat_fair t formula =
  Explicit.Ectl.sat_fair t.graph ~atom:(atom t) ~pred:t.mask formula

let explain t formula ~start =
  let graph = t.graph in
  let fair_mask = Explicit.Ectl.fair_states graph in
  let found = function
    | Some path -> path
    | None -> raise (Counterex.Explain.Cannot_explain "no explicit-state path")
  in
  let prefix, cycle =
    Counterex.Explain.explain_with
      {
        sat = sat_fair t;
        mem = (fun mask i -> mask.(i));
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

let witness t formula =
  let sat = sat_fair t formula in
  Option.map
    (fun start -> explain t formula ~start)
    (first_init t (fun i -> sat.(i)))

let counterexample t formula =
  let sat = sat_fair t formula in
  Option.map
    (fun start -> explain t (Ctl.Not formula) ~start)
    (first_init t (fun i -> not sat.(i)))
