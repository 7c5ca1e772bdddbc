type t =
  | True
  | False
  | Atom of string
  | Pred of Bdd.t
  | Not of t
  | And of t * t
  | Or of t * t
  | Imp of t * t
  | Iff of t * t
  | EX of t
  | EF of t
  | EG of t
  | EU of t * t
  | AX of t
  | AF of t
  | AG of t
  | AU of t * t

let atom s = Atom s
let ( &&& ) a b = And (a, b)
let ( ||| ) a b = Or (a, b)
let ( ==> ) a b = Imp (a, b)
let neg f = Not f

(* Rebuild a formula with every embedded [Pred] state set rewritten. *)
let rec map_pred fn = function
  | (True | False | Atom _) as f -> f
  | Pred b -> Pred (fn b)
  | Not f -> Not (map_pred fn f)
  | And (a, b) -> And (map_pred fn a, map_pred fn b)
  | Or (a, b) -> Or (map_pred fn a, map_pred fn b)
  | Imp (a, b) -> Imp (map_pred fn a, map_pred fn b)
  | Iff (a, b) -> Iff (map_pred fn a, map_pred fn b)
  | EX f -> EX (map_pred fn f)
  | EF f -> EF (map_pred fn f)
  | EG f -> EG (map_pred fn f)
  | EU (a, b) -> EU (map_pred fn a, map_pred fn b)
  | AX f -> AX (map_pred fn f)
  | AF f -> AF (map_pred fn f)
  | AG f -> AG (map_pred fn f)
  | AU (a, b) -> AU (map_pred fn a, map_pred fn b)

let preds f =
  let acc = ref [] in
  ignore (map_pred (fun b -> acc := b :: !acc; b) f);
  !acc

let rec enf = function
  | (True | False | Atom _ | Pred _) as f -> f
  | Not f -> Not (enf f)
  | And (a, b) -> And (enf a, enf b)
  | Or (a, b) -> Or (enf a, enf b)
  | Imp (a, b) -> Or (Not (enf a), enf b)
  | Iff (a, b) ->
    let a = enf a and b = enf b in
    Or (And (a, b), And (Not a, Not b))
  | EX f -> EX (enf f)
  | EF f -> EU (True, enf f)
  | EG f -> EG (enf f)
  | EU (a, b) -> EU (enf a, enf b)
  | AX f -> Not (EX (Not (enf f)))
  | AF f -> Not (EG (Not (enf f)))
  | AG f -> Not (EU (True, Not (enf f)))
  | AU (a, b) ->
    let a = enf a and b = enf b in
    And (Not (EU (Not b, And (Not a, Not b))), Not (EG (Not b)))

(* After [enf] only True/False/Atom/Pred/Not/And/Or/EX/EU/EG remain;
   push negations through the boolean skeleton.  Negated temporal
   operators are left in place (they have no positive existential
   equivalent) — the explainer treats them as opaque state sets. *)
let rec push_neg f =
  let rec pos = function
    | (True | False | Atom _ | Pred _) as f -> f
    | Not f -> neg_ f
    | And (a, b) -> And (pos a, pos b)
    | Or (a, b) -> Or (pos a, pos b)
    | EX f -> EX (pos f)
    | EU (a, b) -> EU (pos a, pos b)
    | EG f -> EG (pos f)
    | (Imp _ | Iff _ | EF _ | AX _ | AF _ | AG _ | AU _) as f ->
      invalid_arg ("Syntax.push_neg: not in ENF: " ^ to_string f)
  and neg_ = function
    | True -> False
    | False -> True
    | (Atom _ | Pred _) as f -> Not f
    | Not f -> pos f
    | And (a, b) -> Or (neg_ a, neg_ b)
    | Or (a, b) -> And (neg_ a, neg_ b)
    | (EX _ | EU _ | EG _) as f -> Not (pos_inside f)
    | (Imp _ | Iff _ | EF _ | AX _ | AF _ | AG _ | AU _) as f ->
      invalid_arg ("Syntax.push_neg: not in ENF: " ^ to_string f)
  and pos_inside = function
    | EX f -> EX (pos f)
    | EU (a, b) -> EU (pos a, pos b)
    | EG f -> EG (pos f)
    | True | False | Atom _ | Pred _ | Not _ | And _ | Or _ | Imp _ | Iff _
    | EF _ | AX _ | AF _ | AG _ | AU _ ->
      assert false
  in
  pos (enf f)

and size = function
  | True | False | Atom _ | Pred _ -> 1
  | Not f | EX f | EF f | EG f | AX f | AF f | AG f -> 1 + size f
  | And (a, b) | Or (a, b) | Imp (a, b) | Iff (a, b) | EU (a, b) | AU (a, b) ->
    1 + size a + size b

and atoms f =
  let rec go acc = function
    | True | False | Pred _ -> acc
    | Atom s -> s :: acc
    | Not f | EX f | EF f | EG f | AX f | AF f | AG f -> go acc f
    | And (a, b) | Or (a, b) | Imp (a, b) | Iff (a, b) | EU (a, b) | AU (a, b)
      ->
      go (go acc a) b
  in
  go [] f |> List.sort_uniq String.compare

(* Precedence climbing for printing: 0 = iff, 1 = imp, 2 = or, 3 = and,
   4 = unary. *)
and pp ppf f =
  let rec go prec ppf f =
    let paren p body =
      if p < prec then Format.fprintf ppf "(%t)" body else body ppf
    in
    match f with
    | True -> Format.pp_print_string ppf "true"
    | False -> Format.pp_print_string ppf "false"
    | Atom s -> Format.pp_print_string ppf s
    | Pred b -> Format.fprintf ppf "{%a}" Bdd.pp b
    | Not g -> paren 4 (fun ppf -> Format.fprintf ppf "!%a" (go 4) g)
    | And (a, b) ->
      paren 3 (fun ppf -> Format.fprintf ppf "%a & %a" (go 3) a (go 4) b)
    | Or (a, b) ->
      paren 2 (fun ppf -> Format.fprintf ppf "%a | %a" (go 2) a (go 3) b)
    | Imp (a, b) ->
      paren 1 (fun ppf -> Format.fprintf ppf "%a -> %a" (go 2) a (go 1) b)
    | Iff (a, b) ->
      paren 0 (fun ppf -> Format.fprintf ppf "%a <-> %a" (go 1) a (go 1) b)
    | EX g -> paren 4 (fun ppf -> Format.fprintf ppf "EX %a" (go 4) g)
    | EF g -> paren 4 (fun ppf -> Format.fprintf ppf "EF %a" (go 4) g)
    | EG g -> paren 4 (fun ppf -> Format.fprintf ppf "EG %a" (go 4) g)
    | AX g -> paren 4 (fun ppf -> Format.fprintf ppf "AX %a" (go 4) g)
    | AF g -> paren 4 (fun ppf -> Format.fprintf ppf "AF %a" (go 4) g)
    | AG g -> paren 4 (fun ppf -> Format.fprintf ppf "AG %a" (go 4) g)
    | EU (a, b) ->
      Format.fprintf ppf "E [%a U %a]" (go 0) a (go 0) b
    | AU (a, b) ->
      Format.fprintf ppf "A [%a U %a]" (go 0) a (go 0) b
  in
  go 0 ppf f

and to_string f = Format.asprintf "%a" pp f
