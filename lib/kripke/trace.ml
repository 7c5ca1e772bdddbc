type t = {
  prefix : Model.state list;
  cycle : Model.state list;
}

let finite states = { prefix = states; cycle = [] }
let lasso ~prefix ~cycle = { prefix; cycle }
let length tr = List.length tr.prefix + List.length tr.cycle
let states tr = tr.prefix @ tr.cycle
let is_lasso tr = tr.cycle <> []

let nth tr i =
  let np = List.length tr.prefix in
  if i < np then List.nth tr.prefix i
  else
    match tr.cycle with
    | [] ->
      if tr.prefix = [] then invalid_arg "Trace.nth: empty trace"
      else List.nth tr.prefix (np - 1)
    | cycle -> List.nth cycle ((i - np) mod List.length cycle)

let append a b =
  if a.cycle <> [] then invalid_arg "Trace.append: first trace has a cycle";
  match (List.rev a.prefix, b.prefix) with
  | [], _ -> b
  | _, [] -> invalid_arg "Trace.append: second trace is empty"
  | last :: _, first :: rest ->
    if last <> first then
      invalid_arg "Trace.append: traces do not share the junction state";
    { prefix = a.prefix @ rest; cycle = b.cycle }

(* One pass into a buffer: each state is decoded once into a value
   array and diffed against the previous state's array.  The layout is
   the vertical-box rendering SMV users know, byte for byte: every
   changed variable on its own line indented by two, and a line holding
   just that indentation closing each state. *)
let render (m : Model.t) tr =
  let vars = m.Model.vars in
  let buf = Buffer.create 256 in
  let count = ref 0 in
  let prev = ref None in
  let add_state loop_start st =
    incr count;
    if loop_start then Buffer.add_string buf "-- loop starts here --\n";
    Buffer.add_string buf "state 1.";
    Buffer.add_string buf (string_of_int !count);
    Buffer.add_string buf ":\n  ";
    let values = Array.map (fun v -> Model.value_of_state v st) vars in
    Array.iteri
      (fun i value ->
        let changed =
          match !prev with None -> true | Some p -> p.(i) <> value
        in
        if changed then begin
          Buffer.add_string buf vars.(i).Model.var_name;
          Buffer.add_string buf " = ";
          Buffer.add_string buf (Model.string_of_value value);
          Buffer.add_string buf "\n  "
        end)
      values;
    Buffer.add_char buf '\n';
    prev := Some values
  in
  List.iter (add_state false) tr.prefix;
  List.iteri (fun i st -> add_state (i = 0) st) tr.cycle;
  Buffer.contents buf

let pp m ppf tr = Format.pp_print_string ppf (render m tr)
