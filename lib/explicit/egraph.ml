type t = {
  nstates : int;
  succ : int array array;
  pred : int array array;
  init : int list;
  fairness : bool array list;
}

let make ~nstates ~edges ~init ?(fairness = []) () =
  let check_state s =
    if s < 0 || s >= nstates then
      invalid_arg (Printf.sprintf "Egraph.make: state %d out of range" s)
  in
  List.iter
    (fun (a, b) ->
      check_state a;
      check_state b)
    edges;
  List.iter check_state init;
  List.iter
    (fun mask ->
      if Array.length mask <> nstates then
        invalid_arg "Egraph.make: fairness mask of wrong length")
    fairness;
  (* An edge's key [a * nstates + b] orders edges by source, then
     target: sorting the int keys puts each adjacency list in order and
     makes duplicates neighbours. *)
  let keys =
    Array.of_list (List.rev_map (fun (a, b) -> (a * nstates) + b) edges)
  in
  Array.stable_sort Int.compare keys;
  let out = Array.make nstates [] and inc = Array.make nstates [] in
  Array.iteri
    (fun i k ->
      if i = 0 || keys.(i - 1) <> k then begin
        let a = k / nstates and b = k mod nstates in
        out.(a) <- b :: out.(a);
        inc.(b) <- a :: inc.(b)
      end)
    keys;
  {
    nstates;
    succ = Array.map (fun l -> Array.of_list (List.rev l)) out;
    pred = Array.map (fun l -> Array.of_list (List.rev l)) inc;
    init = List.sort_uniq Stdlib.compare init;
    fairness;
  }

let mask_of_list ~nstates states =
  let mask = Array.make nstates false in
  List.iter (fun s -> mask.(s) <- true) states;
  mask

let complete g = Array.for_all (fun ss -> Array.length ss > 0) g.succ

(* Iterative Tarjan (explicit stack, so million-state graphs do not
   blow the OCaml stack). *)
let sccs g =
  let n = g.nstates in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let stack = ref [] in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  (* Call-stack frames: (state, next successor position). *)
  let visit v0 =
    let frames = ref [ (v0, ref 0) ] in
    index.(v0) <- !next_index;
    lowlink.(v0) <- !next_index;
    incr next_index;
    stack := v0 :: !stack;
    on_stack.(v0) <- true;
    while !frames <> [] do
      match !frames with
      | [] -> ()
      | (v, pos) :: rest ->
        if !pos < Array.length g.succ.(v) then begin
          let w = g.succ.(v).(!pos) in
          incr pos;
          if index.(w) = -1 then begin
            index.(w) <- !next_index;
            lowlink.(w) <- !next_index;
            incr next_index;
            stack := w :: !stack;
            on_stack.(w) <- true;
            frames := (w, ref 0) :: !frames
          end
          else if on_stack.(w) then
            lowlink.(v) <- min lowlink.(v) index.(w)
        end
        else begin
          if lowlink.(v) = index.(v) then begin
            let rec pop () =
              match !stack with
              | [] -> ()
              | w :: rest_stack ->
                stack := rest_stack;
                on_stack.(w) <- false;
                comp.(w) <- !next_comp;
                if w <> v then pop ()
            in
            pop ();
            incr next_comp
          end;
          frames := rest;
          (match rest with
          | (parent, _) :: _ ->
            lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
          | [] -> ())
        end
    done
  in
  for v = 0 to n - 1 do
    if index.(v) = -1 then visit v
  done;
  comp

let bfs_path g ~from ~target =
  let n = g.nstates in
  if Array.length target <> n then invalid_arg "Egraph.bfs_path: bad mask";
  let parent = Array.make n (-2) in
  let queue = Queue.create () in
  parent.(from) <- -1;
  Queue.add from queue;
  let found = ref None in
  (if target.(from) then found := Some from);
  while !found = None && not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    Array.iter
      (fun w ->
        if parent.(w) = -2 then begin
          parent.(w) <- v;
          if !found = None && target.(w) then found := Some w;
          Queue.add w queue
        end)
      g.succ.(v)
  done;
  match !found with
  | None -> None
  | Some last ->
    let rec build acc v = if v = from then v :: acc else build (v :: acc) parent.(v) in
    Some (build [] last)
