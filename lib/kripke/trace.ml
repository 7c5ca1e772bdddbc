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

(* One pass into a buffer: each variable is decoded to its int code and
   compared with the previous state's code, and only a changed code is
   turned into text.  The layout is the vertical-box rendering SMV
   users know, byte for byte: every changed variable on its own line
   indented by two, and a line holding just that indentation closing
   each state. *)
let render (m : Model.t) tr =
  let vars = m.Model.vars in
  let buf = Buffer.create 256 in
  (* Codes are >= 0, so the first state differs everywhere.  A code
     equal to the previous one was checked against its domain when it
     first appeared, so checking changed codes checks them all. *)
  let prev = Array.make (Array.length vars) (-1) in
  let count = ref 0 in
  let add_state loop_start st =
    incr count;
    if loop_start then Buffer.add_string buf "-- loop starts here --\n";
    Buffer.add_string buf "state 1.";
    Buffer.add_string buf (string_of_int !count);
    Buffer.add_string buf ":\n  ";
    for i = 0 to Array.length vars - 1 do
      let v = vars.(i) in
      let code = Model.code_of_state v st in
      if code <> prev.(i) then begin
        Buffer.add_string buf v.Model.var_name;
        Buffer.add_string buf " = ";
        Buffer.add_string buf (Model.string_of_code v code);
        Buffer.add_string buf "\n  ";
        prev.(i) <- code
      end
    done;
    Buffer.add_char buf '\n'
  in
  List.iter (add_state false) tr.prefix;
  List.iteri (fun i st -> add_state (i = 0) st) tr.cycle;
  Buffer.contents buf

let pp m ppf tr = Format.pp_print_string ppf (render m tr)
