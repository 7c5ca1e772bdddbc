type b = {
  bman : Bdd.man;
  mutable vars : Model.var list;  (* reversed *)
  mutable nbits : int;
  mutable space : Bdd.t;
  mutable init : Bdd.t;
  mutable trans_conjs : Bdd.t list;  (* reversed *)
  mutable trans_cases : Bdd.t list;
  (* memoized disjunction of trans_cases, so repeated [clusters] calls
     (build, then the compiler exposing them) cost no extra BDD work *)
  mutable cases_disj : Bdd.t option;
  mutable fairness : Bdd.t list;
  mutable labels : (string * Bdd.t) list;
}

let create ?man () =
  let bman = match man with Some m -> m | None -> Bdd.create () in
  {
    bman;
    vars = [];
    nbits = 0;
    space = Bdd.one bman;
    init = Bdd.one bman;
    trans_conjs = [];
    trans_cases = [];
    cases_disj = None;
    fairness = [];
    labels = [];
  }

let man b = b.bman

let declare b name vtype =
  if List.exists (fun v -> String.equal v.Model.var_name name) b.vars then
    invalid_arg ("Builder: duplicate variable " ^ name);
  let v = Model.mk_var ~name ~vtype ~first_bit:b.nbits in
  b.vars <- v :: b.vars;
  b.nbits <- b.nbits + Array.length v.Model.bits;
  v

let bool_var b name = declare b name Model.Bool

let enum_var b name consts =
  if consts = [] then invalid_arg "Builder.enum_var: empty enumeration";
  if List.length (List.sort_uniq String.compare consts) <> List.length consts
  then invalid_arg "Builder.enum_var: duplicate constants";
  declare b name (Model.Enum consts)

let range_var b name lo hi =
  if lo > hi then invalid_arg "Builder.range_var: empty range";
  declare b name (Model.Range (lo, hi))

(* Install a static variable order: the given model variables' bits in
   sequence, each state bit contributing its interleaved
   (current, next) BDD-variable pair.  Meant to be called after all
   declarations and before any constraint is added — on the still-empty
   manager the installation is free. *)
let seed_order b vars_in_order =
  let nbits =
    List.fold_left
      (fun acc v -> acc + Array.length v.Model.bits)
      0 vars_in_order
  in
  if nbits <> b.nbits then
    invalid_arg "Builder.seed_order: order does not cover the declared variables";
  let ord = Array.make (2 * b.nbits) (-1) in
  let l = ref 0 in
  List.iter
    (fun v ->
      Array.iter
        (fun k ->
          ord.(!l) <- 2 * k;
          ord.(!l + 1) <- (2 * k) + 1;
          l := !l + 2)
        v.Model.bits)
    vars_in_order;
  Bdd.Reorder.set_order b.bman ord

let bit_cur b k = Bdd.var b.bman (2 * k)
let bit_nxt b k = Bdd.var b.bman ((2 * k) + 1)

let v b (x : Model.var) =
  match x.vtype with
  | Model.Bool -> bit_cur b x.bits.(0)
  | Model.Enum _ | Model.Range _ ->
    invalid_arg "Builder.v: not a boolean variable"

let v' b (x : Model.var) =
  match x.vtype with
  | Model.Bool -> bit_nxt b x.bits.(0)
  | Model.Enum _ | Model.Range _ ->
    invalid_arg "Builder.v': not a boolean variable"

let index_of_value (x : Model.var) (value : Model.value) =
  match (x.vtype, value) with
  | Model.Bool, Model.B bv -> if bv then 1 else 0
  | Model.Enum names, Model.S s -> (
    let rec find i = function
      | [] -> invalid_arg ("Builder: value " ^ s ^ " not in domain of " ^ x.var_name)
      | n :: rest -> if String.equal n s then i else find (i + 1) rest
    in
    find 0 names)
  | Model.Range (lo, hi), Model.I i ->
    if i < lo || i > hi then
      invalid_arg ("Builder: value out of range for " ^ x.var_name)
    else i - lo
  | (Model.Bool | Model.Enum _ | Model.Range _), (Model.B _ | Model.S _ | Model.I _) ->
    invalid_arg ("Builder: type mismatch for " ^ x.var_name)

let encode b (x : Model.var) ~primed idx =
  Array.to_list x.bits
  |> List.mapi (fun k bit ->
         ((2 * bit) + Bool.to_int primed, idx land (1 lsl k) <> 0))
  |> Bdd.minterm b.bman

let is b x value = encode b x ~primed:false (index_of_value x value)
let is' b x value = encode b x ~primed:true (index_of_value x value)

let unchanged b (x : Model.var) =
  let parts =
    Array.to_list x.bits
    |> List.map (fun k -> Bdd.iff b.bman (bit_cur b k) (bit_nxt b k))
  in
  Bdd.conj b.bman parts

let keep_all_but b changing =
  let keep v =
    not
      (List.exists (fun c -> String.equal c.Model.var_name v.Model.var_name)
         changing)
  in
  List.filter keep b.vars |> List.map (unchanged b) |> Bdd.conj b.bman

let add_space b f = b.space <- Bdd.and_ b.bman b.space f
let add_init b f = b.init <- Bdd.and_ b.bman b.init f
let add_trans b f = b.trans_conjs <- f :: b.trans_conjs
let add_trans_case b f =
  b.trans_cases <- f :: b.trans_cases;
  b.cases_disj <- None
let add_fairness b f = b.fairness <- b.fairness @ [ f ]
let add_label b name f = b.labels <- (name, f) :: b.labels

let label_all_bools b =
  List.iter
    (fun x ->
      match x.Model.vtype with
      | Model.Bool -> add_label b x.Model.var_name (v b x)
      | Model.Enum _ | Model.Range _ -> ())
    b.vars

(* The transition clusters: every add_trans conjunct, plus (when any
   case was added) the disjunction of the cases as one more cluster. *)
let clusters b =
  let conjs = List.rev b.trans_conjs in
  match b.trans_cases with
  | [] -> conjs
  | cases ->
    let d =
      match b.cases_disj with
      | Some d -> d
      | None ->
        let d = Bdd.disj b.bman cases in
        b.cases_disj <- Some d;
        d
    in
    conjs @ [ d ]

let partition_ratio = 8
let cluster_nodes man cs = List.fold_left (fun n c -> n + Bdd.size man c) 0 cs

(* Partition exactly when the monolithic relation has more than
   [partition_ratio] times the clusters' nodes; counting stops at that
   bound, so judging a huge relation stays cheap. *)
let build b =
  let cs = clusters b in
  let m =
    Model.make ~man:b.bman ~vars:(List.rev b.vars) ~nbits:b.nbits
      ~space:b.space ~init:b.init ~trans:(Bdd.conj b.bman cs)
      ~fairness:b.fairness ~labels:(List.rev b.labels) ()
  in
  let bound = partition_ratio * cluster_nodes b.bman cs in
  if Bdd.size ~cap:bound b.bman m.Model.trans > bound then
    Model.with_partition m cs
  else m

let totalize (m : Model.t) =
  let dead = Model.deadlocks m in
  if Bdd.is_zero dead then m
  else
    let identity =
      List.init m.nbits (fun k ->
          Bdd.iff m.man (Model.cur_bit m k) (Model.nxt_bit m k))
      |> Bdd.conj m.man
    in
    let loops = Bdd.and_ m.man dead identity in
    let trans = Bdd.or_ m.man m.trans loops in
    Model.make ~man:m.man ~vars:(Array.to_list m.vars) ~nbits:m.nbits
      ~space:m.space ~init:m.init ~trans ~fairness:m.fairness ~labels:m.labels
      ()
