(* Helpers shared by the end-to-end tests that drive the smv_check
   binary as a subprocess (the *_smoke executables and test_cli): the
   paths they run from, output capture, the pass/fail ledger, and the
   client side of the server protocol. *)

module Json = Server.Json
module Frame = Server.Frame

let exe = Filename.concat (Filename.concat ".." "bin") "smv_check.exe"

let model_path name =
  Filename.concat (Filename.concat (Filename.concat ".." "examples") "models")
    name

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  nl = 0 || go 0

(* Run the CLI to completion: its exit code and captured output. *)
let capture cmd =
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let code =
    match Unix.close_process_in ic with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED n | Unix.WSTOPPED n -> 128 + n
  in
  (code, Buffer.contents buf)

(* stdout and stderr together *)
let run args = capture (Filename.quote_command exe args ^ " 2>&1")

(* stdout only: what a server reply's output field carries *)
let run_cli args = capture (Filename.quote_command exe args)

let failures = ref 0

let expect what cond =
  if cond then Printf.printf "ok: %s\n%!" what
  else begin
    incr failures;
    Printf.printf "FAIL: %s\n%!" what
  end

(* Fail the executable when any expectation did not hold. *)
let finish what =
  if !failures > 0 then begin
    Printf.printf "%d %s\n%!" !failures what;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Server client *)

(* A server subprocess over stdio pipes. *)
type server = {
  pid : int;
  to_server : Unix.file_descr;
  from_server : Unix.file_descr;
}

let spawn_server args =
  let stdin_r, stdin_w = Unix.pipe ~cloexec:false () in
  let stdout_r, stdout_w = Unix.pipe ~cloexec:false () in
  let pid =
    Unix.create_process exe
      (Array.of_list (exe :: "--serve" :: args))
      stdin_r stdout_w Unix.stderr
  in
  Unix.close stdin_r;
  Unix.close stdout_w;
  { pid; to_server = stdin_w; from_server = stdout_r }

(* Connect to a socket server, retrying while it comes up. *)
let connect ?(tries = 100) path =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      if tries = 0 then failwith "socket never came up"
      else begin
        Unix.sleepf 0.1;
        go (tries - 1)
      end
  in
  go tries

let write_json fd obj = Frame.write fd (Json.to_string obj)

let read_json fd =
  match Frame.read fd with
  | None -> None
  | Some payload -> (
    match Json.of_string payload with
    | Ok v -> Some v
    | Error e -> failwith ("server sent bad JSON: " ^ e))

let send srv obj = write_json srv.to_server obj
let recv srv = read_json srv.from_server

let wait_pid pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED n -> n
  | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) -> 128 + n

let wait_exit srv =
  (try Unix.close srv.to_server with Unix.Unix_error _ -> ());
  (try Unix.close srv.from_server with Unix.Unix_error _ -> ());
  wait_pid srv.pid

let str k v = Option.bind (Json.member k v) Json.to_str
let num k v = Option.bind (Json.member k v) Json.to_num
let boolean k v = Option.bind (Json.member k v) Json.to_bool

let check_req ?(options = []) ?(specs = []) ~id model_src =
  Json.Obj
    ([
       ("op", Json.Str "check");
       ("id", Json.Str id);
       ("model", Json.Str model_src);
     ]
    @ (if options = [] then [] else [ ("options", Json.Obj options) ])
    @
    if specs = [] then []
    else [ ("specs", Json.Arr (List.map (fun f -> Json.Str f) specs)) ])
