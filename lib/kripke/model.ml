type vtype =
  | Bool
  | Enum of string list
  | Range of int * int

type var = {
  var_name : string;
  vtype : vtype;
  bits : int array;
}

type state = bool array

type value = B of bool | S of string | I of int

(* One step of an early-quantification schedule: conjoin [cluster],
   then existentially quantify [quant] (variables that occur in no
   later cluster). *)
type schedule_step = {
  cluster : Bdd.t;
  quant : Bdd.t;
}

type t = {
  man : Bdd.man;
  vars : var array;
  nbits : int;
  space : Bdd.t;
  init : Bdd.t;
  trans : Bdd.t;
  (* The quantification cubes of the monolithic images, built once with
     the model: [pre] and [post] run once per fixpoint iteration. *)
  cur_cube : Bdd.t;
  nxt_cube : Bdd.t;
  pre_schedule : schedule_step list option;
  post_schedule : schedule_step list option;
  fairness : Bdd.t list;
  labels : (string * Bdd.t) list;
  (* Cached fair-EG greatest fixpoint (Ctl.Fair.fair_states): computed
     once per (model, fairness) and reused across specs.  Owned here so
     it is rooted with the rest of the model's diagrams. *)
  mutable fair_memo : Bdd.t option;
  (* Cached reachable-state fixpoint ([reachable]): depends only on
     [init] and [trans], both immutable, so it is valid for the model's
     whole life — a warm check server reuses it across requests.  Same
     rooting story as [fair_memo]. *)
  mutable reach_memo : Bdd.t option;
  (* Whether both copies' variables sit at levels that increase with
     bit index ([bit_order_of]): then the least state in bit-index
     order is the least path in level order.  The manager's order is
     installed before its first node and never moves, so the flag,
     computed once with the model, stays true to it. *)
  bit_order : bool;
}

(* Every BDD a model owns, for GC root registration: as long as the
   model record itself is referenced, these diagrams must survive
   [Bdd.gc]. *)
let roots m =
  let schedule_roots = function
    | None -> []
    | Some steps ->
      List.concat_map (fun s -> [ s.cluster; s.quant ]) steps
  in
  (m.space :: m.init :: m.trans :: m.cur_cube :: m.nxt_cube :: m.fairness)
  @ List.map snd m.labels
  @ schedule_roots m.pre_schedule
  @ schedule_roots m.post_schedule
  @ Option.to_list m.fair_memo
  @ Option.to_list m.reach_memo

let register_roots m =
  ignore (Bdd.add_root m.man (fun () -> roots m) : Bdd.root);
  m

let cardinal = function
  | Bool -> 2
  | Enum vs -> List.length vs
  | Range (lo, hi) -> hi - lo + 1

let width ty =
  let n = cardinal ty in
  if n <= 0 then invalid_arg "Kripke.width: empty domain";
  let rec bits_for k acc = if k <= 1 then max acc 1 else bits_for ((k + 1) / 2) (acc + 1) in
  if n = 1 then 1 else bits_for n 0

let mk_var ~name ~vtype ~first_bit =
  if cardinal vtype <= 0 then invalid_arg "Kripke.mk_var: empty domain";
  let w = width vtype in
  { var_name = name; vtype; bits = Array.init w (fun i -> first_bit + i) }

let with_fairness m fairness =
  register_roots
    { m with
      fairness = List.map (Bdd.and_ m.man m.space) fairness;
      fair_memo = None }

let fair_memo m = m.fair_memo
let set_fair_memo m f = m.fair_memo <- f
let reach_memo m = m.reach_memo

let cur_bit m b = Bdd.var m.man (2 * b)
let nxt_bit m b = Bdd.var m.man ((2 * b) + 1)
let prime m f = Bdd.shift m.man f 1
let unprime m f = Bdd.shift m.man f (-1)

let cur_cube_of man nbits = Bdd.cube man (List.init nbits (fun b -> 2 * b))
let nxt_cube_of man nbits = Bdd.cube man (List.init nbits (fun b -> (2 * b) + 1))

(* Encoding of "variable (copy) has value index i" as a cube. *)
let bits_encode man bits ~primed i =
  Array.to_list bits
  |> List.mapi (fun k b -> ((2 * b) + Bool.to_int primed, (i lsr k) land 1 = 1))
  |> Bdd.minterm man

(* Valid-encoding constraint for one variable (current copy). *)
let var_space man v =
  let n = cardinal v.vtype in
  if n = 1 lsl Array.length v.bits then Bdd.one man
  else
    Bdd.disj man
      (List.init n (fun i -> bits_encode man v.bits ~primed:false i))

let bit_order_of man nbits =
  let order = Bdd.Reorder.order man in
  let level = Array.make (Array.length order) 0 in
  Array.iteri (fun l v -> level.(v) <- l) order;
  let rec ok b =
    b + 1 >= nbits
    || level.(2 * b) < level.((2 * b) + 2)
       && level.((2 * b) + 1) < level.((2 * b) + 3)
       && ok (b + 1)
  in
  ok 0

let make ~man ~vars ~nbits ?space ~init ~trans ?(fairness = []) ?(labels = [])
    () =
  let vars = Array.of_list vars in
  let declared =
    Array.to_list vars
    |> List.concat_map (fun v -> Array.to_list v.bits)
    |> List.sort_uniq Int.compare
  in
  if List.exists (fun b -> b < 0 || b >= nbits) declared then
    invalid_arg "Kripke.make: variable bit out of range";
  let enc_space =
    Array.fold_left (fun acc v -> Bdd.and_ man acc (var_space man v))
      (Bdd.one man) vars
  in
  let space =
    match space with None -> enc_space | Some s -> Bdd.and_ man s enc_space
  in
  let trans = Bdd.conj man [ trans; space; Bdd.shift man space 1 ] in
  let init = Bdd.and_ man init space in
  let fairness = List.map (Bdd.and_ man space) fairness in
  let nxt_cube = nxt_cube_of man nbits in
  let cur_cube = cur_cube_of man nbits in
  register_roots
    {
      man; vars; nbits; space; init; trans; cur_cube; nxt_cube;
      pre_schedule = None; post_schedule = None;
      fairness; labels; fair_memo = None; reach_memo = None;
      bit_order = bit_order_of man nbits;
    }

(* Eliminate variables cluster by cluster: each step conjoins its
   cluster and immediately quantifies the variables no later cluster
   mentions — the standard early-quantification image computation for
   conjunctively partitioned transition relations. *)
let image_with_schedule man schedule operand =
  List.fold_left
    (fun work step -> Bdd.and_exists man step.quant step.cluster work)
    operand schedule

(* Build the schedule for eliminating the variables selected by
   [relevant] (parity of the BDD variable index distinguishes the
   copies), processing clusters in the given order. *)
let make_schedule man ~relevant ~all_cube clusters =
  let var_sets = List.map (fun c -> Bdd.support man c) clusters in
  (* Variables still alive after position i: union of supports of the
     clusters after it. *)
  let rec schedules clusters var_sets =
    match (clusters, var_sets) with
    | [], [] -> []
    | c :: cs, vs :: vss ->
      let later = List.concat vss in
      let mine =
        List.filter
          (fun v -> relevant v && not (List.mem v later))
          vs
      in
      { cluster = c; quant = Bdd.cube man mine } :: schedules cs vss
    | _, _ -> assert false
  in
  match clusters with
  | [] -> [ { cluster = Bdd.one man; quant = all_cube } ]
  | _ :: _ ->
    let steps = schedules clusters var_sets in
    (* Relevant variables appearing in no cluster at all (e.g. a frame
       variable of the operand) must still be eliminated: fold them
       into a final step. *)
    let covered = List.concat var_sets in
    let missing =
      Bdd.support man all_cube
      |> List.filter (fun v -> not (List.mem v covered))
    in
    if missing = [] then steps
    else steps @ [ { cluster = Bdd.one man; quant = Bdd.cube man missing } ]

let with_partition m clusters =
  let space' = prime m m.space in
  if not (Bdd.equal (Bdd.conj m.man (clusters @ [ m.space; space' ])) m.trans)
  then
    invalid_arg
      "Kripke.with_partition: clusters do not conjoin to the transition \
       relation";
  let parts = m.space :: space' :: clusters in
  let pre_schedule =
    make_schedule m.man
      ~relevant:(fun v -> v mod 2 = 1)
      ~all_cube:m.nxt_cube
      parts
  in
  let post_schedule =
    make_schedule m.man
      ~relevant:(fun v -> v mod 2 = 0)
      ~all_cube:m.cur_cube
      parts
  in
  register_roots
    { m with
      pre_schedule = Some pre_schedule;
      post_schedule = Some post_schedule }

let partitioned m = m.pre_schedule <> None

let pre m s =
  match m.pre_schedule with
  | Some schedule -> image_with_schedule m.man schedule (prime m s)
  | None ->
    let s' = prime m s in
    Bdd.and_exists m.man m.nxt_cube m.trans s'

let post m s =
  match m.post_schedule with
  | Some schedule -> unprime m (image_with_schedule m.man schedule s)
  | None ->
    let img = Bdd.and_exists m.man m.cur_cube m.trans s in
    unprime m img

(* Charge one fixpoint iteration against the optional limits. *)
let tick m limits =
  match limits with None -> () | Some l -> Bdd.Limits.step m.man l

let reachable ?limits m =
  (* Memoised: the fixpoint depends only on the immutable [init] and
     [trans], so once computed it is stored on the model (rooted with
     its other diagrams) and every later call — any number of specs or
     warm-server requests later — returns it outright.  The memo is
     only written by a {e completed} fixpoint: a breach propagates
     before the store, so a later, better-budgeted call recomputes. *)
  match m.reach_memo with
  | Some r -> r
  | None ->
    (* Root the frontier so a GC triggered mid-fixpoint cannot sweep
       the running approximation. *)
    let frontier = ref m.init in
    let r =
      Bdd.with_root m.man
        (fun () -> [ !frontier ])
        (fun () ->
          let rec go r =
            tick m limits;
            let r' = Bdd.or_ m.man r (post m r) in
            if Bdd.equal r r' then r
            else begin
              frontier := r';
              go r'
            end
          in
          go m.init)
    in
    m.reach_memo <- Some r;
    r

let deadlocks m =
  Bdd.diff m.man m.space (pre m m.space)

let count_states m set =
  Bdd.sat_count m.man set (2 * m.nbits) /. Float.pow 2.0 (float_of_int m.nbits)

let var_by_name m name =
  match Array.find_opt (fun v -> String.equal v.var_name name) m.vars with
  | Some v -> v
  | None -> raise Not_found

let label m name = List.assoc name m.labels

let code_of_state v (st : state) =
  let bits = v.bits in
  let idx = ref 0 in
  for k = Array.length bits - 1 downto 0 do
    idx := (!idx lsl 1) lor Bool.to_int st.(bits.(k))
  done;
  !idx

let enum_name names code =
  match List.nth_opt names code with
  | Some s -> s
  | None -> invalid_arg "Kripke.value_of_state: invalid enum encoding"

let range_value lo hi code =
  if lo + code > hi then invalid_arg "Kripke.value_of_state: out of range"
  else lo + code

let value_of_state v st =
  let code = code_of_state v st in
  match v.vtype with
  | Bool -> B (code <> 0)
  | Enum names -> S (enum_name names code)
  | Range (lo, hi) -> I (range_value lo hi code)

let string_of_code v code =
  match v.vtype with
  | Bool -> if code <> 0 then "1" else "0"
  | Enum names -> enum_name names code
  | Range (lo, hi) -> string_of_int (range_value lo hi code)

let state_to_bdd m (st : state) =
  Bdd.minterm m.man (List.init m.nbits (fun b -> (2 * b, st.(b))))

(* The least state in bit-index order, whatever the variable order:
   cofactor the current-copy bits 0..nbits-1 in turn, taking [false]
   whenever the set allows it.  (A path read off the diagram is least
   in *level* order, so under an order that is not bit order the
   representative, and with it every trace, would depend on the order
   the compiler installed.)  [pick_state] and [pick_successor] return
   what it returns, and off bit order it is their only path. *)
let pick_by_bits m set =
  let set = Bdd.and_ m.man set m.space in
  if Bdd.is_zero set then None
  else begin
    let st = Array.make m.nbits false in
    let cur = ref set in
    for b = 0 to m.nbits - 1 do
      let f0 = Bdd.restrict m.man !cur (2 * b) false in
      if Bdd.is_zero f0 then begin
        st.(b) <- true;
        cur := Bdd.restrict m.man !cur (2 * b) true
      end
      else cur := f0
    done;
    (* A state set must constrain current-copy variables only; if the
       pinned state fell outside the set, it required a next-copy
       variable we cannot represent in a state. *)
    if not (Bdd.eval m.man set (fun v -> v mod 2 = 0 && st.(v / 2))) then
      invalid_arg "Kripke.pick_state: set constrains next-state variables";
    Some st
  end

exception Off_bit_order

(* Under bit order, the least path of [Bdd.least_meet] is the
   reference's state, read off the [copy] its bits branch on, so long
   as the path tests no variable of the other copy (a set that
   constrains it, which the reference may reject) and the walk accepts
   its operands; otherwise [Off_bit_order] sends the caller to the
   reference. *)
let least_state m f ~pin g ~d ~copy =
  let path = Array.make (2 * m.nbits) (-1) in
  match Bdd.least_meet m.man f ~pin g ~d path with
  | exception Invalid_argument _ -> raise Off_bit_order
  | false -> None
  | true ->
    for b = 0 to m.nbits - 1 do
      if path.((2 * b) + 1 - copy) >= 0 then raise Off_bit_order
    done;
    Some (Array.init m.nbits (fun b -> path.((2 * b) + copy) = 1))

let pick_state m set =
  if not m.bit_order then pick_by_bits m set
  else
    try least_state m set ~pin:[||] m.space ~d:0 ~copy:0
    with Off_bit_order -> pick_by_bits m set

(* Uniform random member of a state set, without enumerating it: walk
   the current-copy bits in order, choosing each bit with probability
   proportional to the satisfying-assignment count of the corresponding
   cofactor.  Both cofactors leave the same next-copy variables free,
   so the counts are proportional to state counts and the result is
   uniform over the set.  O(nbits * diagram size) — no exponential
   enumeration, unlike {!states_in}. *)
let pick_random_state m ~rng set =
  let set = Bdd.and_ m.man set m.space in
  if Bdd.is_zero set then None
  else begin
    let st = Array.make m.nbits false in
    let cur = ref set in
    for b = 0 to m.nbits - 1 do
      let v = 2 * b in
      let f0 = Bdd.restrict m.man !cur v false in
      let f1 = Bdd.restrict m.man !cur v true in
      let w0 =
        if Bdd.is_zero f0 then 0.0 else Bdd.sat_count m.man f0 (2 * m.nbits)
      in
      let w1 =
        if Bdd.is_zero f1 then 0.0 else Bdd.sat_count m.man f1 (2 * m.nbits)
      in
      let take_true =
        if w1 = 0.0 then false
        else if w0 = 0.0 then true
        else Random.State.float rng (w0 +. w1) < w1
      in
      st.(b) <- take_true;
      cur := if take_true then f1 else f0
    done;
    (* Same guard as [pick_by_bits]: a state set must constrain
       current-copy variables only. *)
    if not (Bdd.eval m.man set (fun v -> v mod 2 = 0 && st.(v / 2))) then
      invalid_arg "Kripke.pick_random_state: set constrains next-state variables";
    Some st
  end

let pin_state m (st : state) =
  let pin = Array.make (2 * m.nbits) (-1) in
  for b = 0 to m.nbits - 1 do
    pin.(2 * b) <- Bool.to_int st.(b)
  done;
  pin

(* Cofactoring the relation by a full current-state assignment leaves
   a function of the next copy alone: exactly [exists v. N(v,v') /\ st],
   without the conjunction or the quantification of an image.  The
   cofactor and the unprime are one walk of [trans]. *)
let successors m st =
  Bdd.cofactor_shift m.man m.trans ~pin:(pin_state m st) ~d:(-1)

(* [pick_by_bits] of the successors inside [target].  Under bit order
   it is one walk of the relation, its current copy pinned to [st], and
   of [target] read on the next copy: no successor set, no meet, no
   cofactor is built.  [trans] confines both endpoints to [space], so
   the walk needs no third operand. *)
let pick_successor m st target =
  let by_bits () = pick_by_bits m (Bdd.and_ m.man target (successors m st)) in
  if not m.bit_order then by_bits ()
  else
    try least_state m m.trans ~pin:(pin_state m st) target ~d:1 ~copy:1
    with Off_bit_order -> by_bits ()

let states_in m set =
  let set = Bdd.and_ m.man set m.space in
  let bdd_vars = List.init m.nbits (fun b -> 2 * b) in
  Bdd.fold_sat m.man set bdd_vars ~init:[] ~f:(fun acc a -> Array.copy a :: acc)
  |> List.rev

let eval_in_state m set (st : state) =
  Bdd.eval m.man set (fun v -> v mod 2 = 0 && st.(v / 2))

let string_of_value = function
  | B b -> if b then "1" else "0"
  | S s -> s
  | I i -> string_of_int i

(* ------------------------------------------------------------------ *)
(* Skeletons: the pure-data shadow of a model for warm-state
   persistence.  Every [Bdd.t] is an immediate int handle into the
   owning manager's packed store, so the record marshals as plain
   data; it is only meaningful against the exact manager it was taken
   from (or a [Bdd.Snapshot] restore of it, which preserves handles
   bit-for-bit). *)

type skeleton = {
  sk_vars : var array;
  sk_nbits : int;
  sk_space : Bdd.t;
  sk_init : Bdd.t;
  sk_trans : Bdd.t;
  sk_pre : (Bdd.t * Bdd.t) list option;
  sk_post : (Bdd.t * Bdd.t) list option;
  sk_fairness : Bdd.t list;
  sk_labels : (string * Bdd.t) list;
  sk_fair_memo : Bdd.t option;
  sk_reach_memo : Bdd.t option;
}

let skeleton m =
  let steps = List.map (fun s -> (s.cluster, s.quant)) in
  {
    sk_vars = Array.map (fun v -> { v with bits = Array.copy v.bits }) m.vars;
    sk_nbits = m.nbits;
    sk_space = m.space;
    sk_init = m.init;
    sk_trans = m.trans;
    sk_pre = Option.map steps m.pre_schedule;
    sk_post = Option.map steps m.post_schedule;
    sk_fairness = m.fairness;
    sk_labels = m.labels;
    sk_fair_memo = m.fair_memo;
    sk_reach_memo = m.reach_memo;
  }

let of_skeleton ~man sk =
  let steps = List.map (fun (cluster, quant) -> { cluster; quant }) in
  let nxt_cube = nxt_cube_of man sk.sk_nbits in
  let cur_cube = cur_cube_of man sk.sk_nbits in
  register_roots
    {
      man;
      vars = sk.sk_vars;
      nbits = sk.sk_nbits;
      space = sk.sk_space;
      init = sk.sk_init;
      trans = sk.sk_trans;
      cur_cube;
      nxt_cube;
      pre_schedule = Option.map steps sk.sk_pre;
      post_schedule = Option.map steps sk.sk_post;
      fairness = sk.sk_fairness;
      labels = sk.sk_labels;
      fair_memo = sk.sk_fair_memo;
      reach_memo = sk.sk_reach_memo;
      bit_order = bit_order_of man sk.sk_nbits;
    }
