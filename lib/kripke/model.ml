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
  (m.space :: m.init :: m.trans :: m.fairness)
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
let set_reach_memo m r = m.reach_memo <- r

let cur_bit m b = Bdd.var m.man (2 * b)
let nxt_bit m b = Bdd.var m.man ((2 * b) + 1)
let prime m f = Bdd.rename m.man f (fun v -> v + 1)
let unprime m f = Bdd.rename m.man f (fun v -> v - 1)

let cur_cube_of man nbits = Bdd.cube man (List.init nbits (fun b -> 2 * b))
let nxt_cube_of man nbits = Bdd.cube man (List.init nbits (fun b -> (2 * b) + 1))

let cur_cube m = cur_cube_of m.man m.nbits
let nxt_cube m = nxt_cube_of m.man m.nbits

(* Encoding of "variable (copy) has value index i" as a cube. *)
let bits_encode man bits ~primed i =
  let lits =
    Array.to_list bits
    |> List.mapi (fun k b ->
           let bv = (2 * b) + if primed then 1 else 0 in
           if i land (1 lsl k) <> 0 then Bdd.var man bv else Bdd.nvar man bv)
  in
  Bdd.conj man lits

(* Valid-encoding constraint for one variable (current copy). *)
let var_space man v =
  let n = cardinal v.vtype in
  if n = 1 lsl Array.length v.bits then Bdd.one man
  else
    Bdd.disj man
      (List.init n (fun i -> bits_encode man v.bits ~primed:false i))

let make ~man ~vars ~nbits ?space ~init ~trans ?(fairness = []) ?(labels = [])
    () =
  let vars = Array.of_list vars in
  let declared =
    Array.to_list vars
    |> List.concat_map (fun v -> Array.to_list v.bits)
    |> List.sort_uniq Stdlib.compare
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
  let space' =
    (* prime: shift every current var up by one *)
    Bdd.rename man space (fun v -> v + 1)
  in
  let trans = Bdd.conj man [ trans; space; space' ] in
  let init = Bdd.and_ man init space in
  let fairness = List.map (Bdd.and_ man space) fairness in
  (* Each state bit owns a (current, next) BDD-variable pair; declare
     them so dynamic reordering sifts the pair as one block and never
     separates the interleaved copies. *)
  Bdd.Reorder.set_pairs man (List.init nbits (fun b -> (2 * b, (2 * b) + 1)));
  register_roots
    {
      man; vars; nbits; space; init; trans;
      pre_schedule = None; post_schedule = None;
      fairness; labels; fair_memo = None; reach_memo = None;
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
  let check =
    Bdd.conj m.man
      (clusters @ [ m.space; Bdd.rename m.man m.space (fun v -> v + 1) ])
  in
  if not (Bdd.equal check m.trans) then
    invalid_arg
      "Kripke.with_partition: clusters do not conjoin to the transition \
       relation";
  let space' = Bdd.rename m.man m.space (fun v -> v + 1) in
  let parts = m.space :: space' :: clusters in
  let pre_schedule =
    make_schedule m.man
      ~relevant:(fun v -> v mod 2 = 1)
      ~all_cube:(nxt_cube_of m.man m.nbits)
      parts
  in
  let post_schedule =
    make_schedule m.man
      ~relevant:(fun v -> v mod 2 = 0)
      ~all_cube:(cur_cube_of m.man m.nbits)
      parts
  in
  register_roots
    { m with
      pre_schedule = Some pre_schedule;
      post_schedule = Some post_schedule }

let partitioned m = m.pre_schedule <> None

(* Deep-copy a model into another manager: every BDD goes through
   [Bdd.transfer] (which reads only immutable node structure, so
   several worker domains may clone the same source model at once), the
   variable layout is duplicated, and the clone registers its own GC
   roots with the destination manager.  Because transfer preserves
   semantics exactly and every choice the checking / witness layers
   make is semantic (lexicographically least cubes, fixpoints), a clone
   produces bit-identical verdicts and traces to the original. *)
let clone_into dst m =
  if dst == m.man then invalid_arg "Kripke.clone_into: same manager";
  (* Replicate ordering metadata before copying any diagram: installing
     the source's variable order on the (typically empty) destination
     keeps [Bdd.transfer] on its structural fast path, and the pair
     grouping must survive so the clone's own reorders stay grouped.
     Identity orders are skipped — [set_order] is then pure overhead. *)
  let src_order = Bdd.Reorder.order m.man in
  let identity = ref true in
  Array.iteri (fun l v -> if l <> v then identity := false) src_order;
  if not !identity then Bdd.Reorder.set_order dst src_order;
  Bdd.Reorder.set_pairs dst (Bdd.Reorder.pairs m.man);
  let t b = Bdd.transfer ~src:m.man ~dst b in
  let clone_steps =
    List.map (fun s -> { cluster = t s.cluster; quant = t s.quant })
  in
  register_roots
    {
      man = dst;
      vars = Array.map (fun v -> { v with bits = Array.copy v.bits }) m.vars;
      nbits = m.nbits;
      space = t m.space;
      init = t m.init;
      trans = t m.trans;
      pre_schedule = Option.map clone_steps m.pre_schedule;
      post_schedule = Option.map clone_steps m.post_schedule;
      fairness = List.map t m.fairness;
      labels = List.map (fun (name, b) -> (name, t b)) m.labels;
      fair_memo = Option.map t m.fair_memo;
      reach_memo = Option.map t m.reach_memo;
    }

let pre m s =
  match m.pre_schedule with
  | Some schedule -> image_with_schedule m.man schedule (prime m s)
  | None ->
    let s' = prime m s in
    Bdd.and_exists m.man (nxt_cube m) m.trans s'

let post m s =
  match m.post_schedule with
  | Some schedule -> unprime m (image_with_schedule m.man schedule s)
  | None ->
    let img = Bdd.and_exists m.man (cur_cube m) m.trans s in
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

let value_of_state v (st : state) =
  let idx =
    Array.to_list v.bits
    |> List.mapi (fun k b -> if st.(b) then 1 lsl k else 0)
    |> List.fold_left ( + ) 0
  in
  match v.vtype with
  | Bool -> B (idx <> 0)
  | Enum names ->
    (match List.nth_opt names idx with
    | Some s -> S s
    | None -> invalid_arg "Kripke.value_of_state: invalid enum encoding")
  | Range (lo, hi) ->
    if lo + idx > hi then invalid_arg "Kripke.value_of_state: out of range"
    else I (lo + idx)

let state_to_bdd m (st : state) =
  let lits =
    List.init m.nbits (fun b ->
        if st.(b) then cur_bit m b else Bdd.not_ m.man (cur_bit m b))
  in
  Bdd.conj m.man lits

let pick_state m set =
  let set = Bdd.and_ m.man set m.space in
  if Bdd.is_zero set then None
  else begin
    (* The least state in bit-index order, whatever the variable order:
       cofactor the current-copy bits 0..nbits-1 in turn, taking
       [false] whenever the set allows it.  (A cube read off the
       diagram would be least in *level* order, so a sifted manager
       would pick a different representative and change traces.) *)
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
    (* Same guard as {!pick_state}: a state set must constrain
       current-copy variables only. *)
    if not (Bdd.eval m.man set (fun v -> v mod 2 = 0 && st.(v / 2))) then
      invalid_arg "Kripke.pick_random_state: set constrains next-state variables";
    Some st
  end

let pick_successor m st target =
  let succ = post m (state_to_bdd m st) in
  pick_state m (Bdd.and_ m.man succ target)

let states_in m set =
  let set = Bdd.and_ m.man set m.space in
  let bdd_vars = List.init m.nbits (fun b -> 2 * b) in
  Bdd.fold_sat m.man set bdd_vars ~init:[] ~f:(fun acc a -> Array.copy a :: acc)
  |> List.rev

let eval_in_state m set (st : state) =
  Bdd.eval m.man set (fun v -> v mod 2 = 0 && st.(v / 2))

let pp_value ppf = function
  | B b -> Format.fprintf ppf "%d" (if b then 1 else 0)
  | S s -> Format.pp_print_string ppf s
  | I i -> Format.pp_print_int ppf i

let pp_state m ppf st =
  Array.iter
    (fun v ->
      Format.fprintf ppf "%s = %a@," v.var_name pp_value (value_of_state v st))
    m.vars

let pp_state_diff m ~prev ppf st =
  Array.iter
    (fun v ->
      let old_v = value_of_state v prev and new_v = value_of_state v st in
      if old_v <> new_v then
        Format.fprintf ppf "%s = %a@," v.var_name pp_value new_v)
    m.vars

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
  (* Same pair grouping [make] declares; on a snapshot-restored
     manager this rewrites the pairs it already carries (idempotent). *)
  Bdd.Reorder.set_pairs man
    (List.init sk.sk_nbits (fun b -> (2 * b, (2 * b) + 1)));
  register_roots
    {
      man;
      vars = sk.sk_vars;
      nbits = sk.sk_nbits;
      space = sk.sk_space;
      init = sk.sk_init;
      trans = sk.sk_trans;
      pre_schedule = Option.map steps sk.sk_pre;
      post_schedule = Option.map steps sk.sk_post;
      fairness = sk.sk_fairness;
      labels = sk.sk_labels;
      fair_memo = sk.sk_fair_memo;
      reach_memo = sk.sk_reach_memo;
    }
