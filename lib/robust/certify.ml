let ( let* ) = Result.bind

(* Lift a [Validate] verdict into the string-error world, naming the
   requirement that was being checked. *)
let v label = function
  | Ok () -> Ok ()
  | Error e ->
    Error (Format.asprintf "%s: %a" label Counterex.Validate.pp_error e)

(* Does the boolean skeleton expose a temporal operator (the question
   [Counterex.Explain] asks to decide which conjunct a path follows)?
   Anything explanation treats as opaque — negations, and the
   constructors push_neg eliminates — counts as non-temporal here and
   is certified semantically at its anchor state. *)
let rec is_temporal = function
  | Ctl.EX _ | Ctl.EU _ | Ctl.EG _ -> true
  | Ctl.And (a, b) | Ctl.Or (a, b) -> is_temporal a || is_temporal b
  | Ctl.True | Ctl.False | Ctl.Atom _ | Ctl.Pred _ | Ctl.Not _
  | Ctl.Imp _ | Ctl.Iff _ | Ctl.EF _ | Ctl.AX _ | Ctl.AF _ | Ctl.AG _
  | Ctl.AU _ ->
    false

let rec drop k l =
  if k <= 0 then l else match l with [] -> [] | _ :: rest -> drop (k - 1) rest

(* The sub-trace from position [k] of the prefix on ([k] may equal the
   prefix length, yielding the pure-cycle lasso). *)
let suffix (tr : Kripke.Trace.t) k =
  Kripke.Trace.lasso ~prefix:(drop k tr.Kripke.Trace.prefix)
    ~cycle:tr.Kripke.Trace.cycle

(* Certify that [tr] demonstrates the push_neg-normalised [f], by the
   same decomposition [Counterex.Explain] used to build it.  Operand
   satisfaction sets are recomputed here under fair semantics — the
   certificate shares only the model with the generator. *)
let demonstrates ?limits m f tr =
  let satf g = Ctl.Fair.sat ?limits m g in
  let anchor label g tr =
    v label (Counterex.Validate.starts_at m (satf g) tr)
  in
  let rec go f tr =
    match f with
    | Ctl.EG a -> v "EG witness" (Counterex.Validate.eg_witness m ~f:(satf a) tr)
    | Ctl.EU (a, b) when not (is_temporal b) ->
      v "EU witness"
        (Counterex.Validate.eu_witness m ~f:(satf a) ~g:(satf b) tr)
    | Ctl.EU (a, b) ->
      (* The junction — where the path stops showing [a U .] and starts
         showing [b] — is not recorded in the trace, so search for it:
         every position before it must satisfy [a], the junction must
         satisfy [b], and the rest of the trace must demonstrate [b].
         Junctions live in the prefix (or at the cycle head, when the
         continuation's own cycle starts right at the junction). *)
      let prefix = tr.Kripke.Trace.prefix in
      let sat_a = satf a and sat_b = satf b in
      let candidates =
        prefix
        @ (match tr.Kripke.Trace.cycle with [] -> [] | st :: _ -> [ st ])
      in
      let rec try_k k = function
        | [] ->
          Error "EU witness: no junction state satisfies the continuation"
        | st :: rest ->
          if Kripke.eval_in_state m sat_b st then
            match go b (suffix tr k) with
            | Ok () -> Ok ()
            | Error _ when rest <> [] && Kripke.eval_in_state m sat_a st ->
              try_k (k + 1) rest
            | Error e -> Error e
          else if Kripke.eval_in_state m sat_a st then try_k (k + 1) rest
          else
            Error
              (Printf.sprintf
                 "EU witness: position %d satisfies neither operand" k)
      in
      try_k 0 candidates
    | Ctl.EX a ->
      let* () = v "EX witness" (Counterex.Validate.ex_witness m ~f:(satf a) tr) in
      if is_temporal a then go a (suffix tr 1) else Ok ()
    | Ctl.And (a, b) ->
      (* The whole conjunction must hold at the start; the path then
         demonstrates the first temporal conjunct (a single path cannot
         exhibit two temporal facts — Explain's documented limit). *)
      let* () = anchor "conjunction at the start state" f tr in
      if is_temporal a then go a tr
      else if is_temporal b then go b tr
      else Ok ()
    | Ctl.Or (a, b) ->
      let first_holds g =
        match Counterex.Validate.starts_at m (satf g) tr with
        | Ok () -> true
        | Error _ -> false
      in
      if first_holds a then go a tr
      else if first_holds b then go b tr
      else Error "disjunction: neither disjunct holds at the start state"
    | Ctl.True | Ctl.False | Ctl.Atom _ | Ctl.Pred _ | Ctl.Not _
    | Ctl.Imp _ | Ctl.Iff _ | Ctl.EF _ | Ctl.AX _ | Ctl.AF _ | Ctl.AG _
    | Ctl.AU _ ->
      anchor "the formula at the start state" f tr
  in
  go f tr

let certify ?limits m formula tr =
  let* () = v "path" (Counterex.Validate.path_ok m tr) in
  let* () =
    v "start" (Counterex.Validate.starts_at m m.Kripke.init tr)
  in
  demonstrates ?limits m (Ctl.push_neg formula) tr

(* [?engine] is ignored: kept only because perfbench/probe.ml passes
   it. *)
let witness ?limits ?engine:_ m f tr = certify ?limits m f tr

let counterexample ?limits ?engine:_ m f tr =
  certify ?limits m (Ctl.Not f) tr
