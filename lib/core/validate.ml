type error =
  | Empty_trace
  | Broken_transition of int
  | Broken_loop
  | State_outside of int * string
  | Missing_fairness of int

let pp_error ppf = function
  | Empty_trace -> Format.pp_print_string ppf "empty trace"
  | Broken_transition i ->
    Format.fprintf ppf "no transition between positions %d and %d" i (i + 1)
  | Broken_loop -> Format.pp_print_string ppf "cycle does not close"
  | State_outside (i, what) ->
    Format.fprintf ppf "state at position %d violates %s" i what
  | Missing_fairness k ->
    Format.fprintf ppf "cycle misses fairness constraint #%d" k

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* One root-to-leaf walk of the relation at the full assignment:
   current-copy variable [2i] reads bit [i] of [a], next-copy variable
   [2i + 1] bit [i] of [b].  Nothing is built, so checking a trace
   leaves the manager and its caches as it found them. *)
let has_edge m (a : Kripke.state) (b : Kripke.state) =
  Bdd.eval m.Kripke.man m.Kripke.trans (fun v ->
      (if v land 1 = 0 then a else b).(v lsr 1))

let all_states_in m set ~what states =
  let rec go i = function
    | [] -> Ok ()
    | st :: rest ->
      if Kripke.eval_in_state m set st then go (i + 1) rest
      else Error (State_outside (i, what))
  in
  go 0 states

let path_ok m tr =
  let states = Kripke.Trace.states tr in
  match states with
  | [] -> Error Empty_trace
  | _ :: _ ->
    let* () = all_states_in m m.Kripke.space ~what:"the state space" states in
    let rec edges i = function
      | a :: (b :: _ as rest) ->
        if has_edge m a b then edges (i + 1) rest
        else Error (Broken_transition i)
      | [ _ ] | [] -> Ok ()
    in
    let* () = edges 0 states in
    if not (Kripke.Trace.is_lasso tr) then Ok ()
    else
      let first_of_cycle =
        match tr.Kripke.Trace.cycle with st :: _ -> st | [] -> assert false
      in
      let last =
        match List.rev tr.Kripke.Trace.cycle with st :: _ -> st | [] -> assert false
      in
      if has_edge m last first_of_cycle then Ok () else Error Broken_loop

(* The witness checks below, minus [path_ok]: for a trace whose path
   is already known to be valid, such as a suffix of a validated one. *)
module On_path = struct
  let eg_witness m ~f tr =
    let states = Kripke.Trace.states tr in
    if states = [] then Error Empty_trace
    else if not (Kripke.Trace.is_lasso tr) then Error Broken_loop
    else
      let* () = all_states_in m f ~what:"the invariant f of EG f" states in
      let cycle = tr.Kripke.Trace.cycle in
      let hit h = List.exists (Kripke.eval_in_state m h) cycle in
      let rec check k = function
        | [] -> Ok ()
        | h :: rest ->
          if hit h then check (k + 1) rest else Error (Missing_fairness k)
      in
      check 0 m.Kripke.fairness

  let eu_witness m ~f ~g tr =
    if Kripke.Trace.is_lasso tr then Error Broken_loop
    else
      match List.rev (Kripke.Trace.states tr) with
      | [] -> Error Empty_trace
      | last :: before_rev ->
        let* () =
          all_states_in m f ~what:"the left operand of EU"
            (List.rev before_rev)
        in
        if Kripke.eval_in_state m g last then Ok ()
        else
          Error
            (State_outside (List.length before_rev, "the right operand of EU"))

  let ex_witness m ~f tr =
    match Kripke.Trace.states tr with
    | _ :: second :: _ ->
      if Kripke.eval_in_state m f second then Ok ()
      else Error (State_outside (1, "the operand of EX"))
    | [ _ ] -> Error (State_outside (0, "a two-state EX witness"))
    | [] -> Error Empty_trace
end

let eg_witness m ~f tr =
  let* () = path_ok m tr in
  On_path.eg_witness m ~f tr

let eu_witness m ~f ~g tr =
  let* () = path_ok m tr in
  On_path.eu_witness m ~f ~g tr

let ex_witness m ~f tr =
  let* () = path_ok m tr in
  On_path.ex_witness m ~f tr

let starts_at m set tr =
  match Kripke.Trace.states tr with
  | [] -> Error Empty_trace
  | first :: _ ->
    if Kripke.eval_in_state m set first then Ok ()
    else Error (State_outside (0, "the required start set"))
