(* Durable warm state for the check server.  See the interface for the
   contract; the short version: one file per pooled model under the
   state directory, each carrying a [Bdd.Snapshot] of the manager plus
   the marshalled pure-data shadow of the compiled artifact
   ([Kripke.skeleton], specs, defines, clusters — all of whose [Bdd.t]
   handles the snapshot preserves bit-for-bit).  Everything here is
   best-effort: a failed write is a logged warning, a bad file on
   rehydrate is quarantined and counted, and neither ever takes the
   server down — that is the crash-only discipline. *)

(* The marshalled body.  The snapshot blob carries its own magic and
   checksum; the wrapper checksums the whole body (below) so a torn or
   bit-flipped file is rejected before [Marshal.from_string] ever sees
   it — unmarshalling untrusted bytes is the one genuinely unsafe
   operation in this file. *)
type payload = {
  p_key : string;
  p_snap : string;
  p_skel : Kripke.skeleton;
  p_specs : (string * Ctl.t) list;
  p_defines : (string * Smv.Ast.expr) list;
  p_clusters : Bdd.t list;
}

type t = {
  dir : string;
  debug : bool;
  persisted_uses : (string, int) Hashtbl.t;
      (* key -> [Cache] use count at the last successful write: the
         cheap dirty check that keeps the watchdog tick from rewriting
         identical snapshots forever *)
  lock : Mutex.t;
  mutable snapshots : int;
  mutable restores : int;
  mutable quarantines : int;
}

type counters = { snapshots : int; restores : int; quarantines : int }

(* Bumped whenever the marshalled payload or its key changes shape
   ("SMVWARM2" carried an engine-tagged fair memo in [Kripke.skeleton],
   "SMVWARM3" keys digested a partitioned flag, "SMVWARM4" ones a
   static-order flag); a mismatch quarantines the stale file instead
   of unmarshalling it as garbage. *)
let magic = "SMVWARM5"
let suffix = ".warm"

let warn t fmt =
  Format.kasprintf
    (fun s -> if t.debug then Format.eprintf "smv_check --serve: %s@." s)
    fmt

let create ~dir ~debug =
  (try Unix.mkdir dir 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (match Unix.stat dir with
  | { Unix.st_kind = Unix.S_DIR; _ } -> ()
  | _ -> invalid_arg (Printf.sprintf "Persist.create: %s is not a directory" dir)
  | exception Unix.Unix_error (e, _, _) ->
    invalid_arg
      (Printf.sprintf "Persist.create: cannot use %s: %s" dir
         (Unix.error_message e)));
  {
    dir;
    debug;
    persisted_uses = Hashtbl.create 16;
    lock = Mutex.create ();
    snapshots = 0;
    restores = 0;
    quarantines = 0;
  }

let counters t =
  Mutex.lock t.lock;
  let c =
    {
      snapshots = t.snapshots;
      restores = t.restores;
      quarantines = t.quarantines;
    }
  in
  Mutex.unlock t.lock;
  c

let path_of t key = Filename.concat t.dir (key ^ suffix)

(* The entry's use count at its last write, beside its warm file (whose
   format stays as it is), so a restored entry keeps its place in the
   pool's victim order. *)
let uses_path t key = Filename.concat t.dir (key ^ ".uses")

(* ------------------------------------------------------------------ *)
(* Writing. *)

let encode ~key (compiled : Smv.Compile.compiled) =
  let man = compiled.Smv.Compile.model.Kripke.man in
  let payload =
    {
      p_key = key;
      p_snap = Bdd.Snapshot.dump man;
      p_skel = Kripke.skeleton compiled.Smv.Compile.model;
      p_specs = compiled.Smv.Compile.specs;
      p_defines = compiled.Smv.Compile.defines;
      p_clusters = compiled.Smv.Compile.clusters;
    }
  in
  let body = Marshal.to_string payload [] in
  magic ^ Digest.string body ^ body

let write_atomic t ~path blob =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out_bin tmp in
  (try
     output_string oc blob;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Sys.rename tmp path;
  ignore t

let save_entry t ~key ~uses compiled =
  match
    let blob = encode ~key compiled in
    write_atomic t ~path:(path_of t key) blob;
    write_atomic t ~path:(uses_path t key) (string_of_int uses)
  with
  | () ->
    Mutex.lock t.lock;
    t.snapshots <- t.snapshots + 1;
    Hashtbl.replace t.persisted_uses key uses;
    Mutex.unlock t.lock;
    true
  | exception ((Sys_error _ | Unix.Unix_error _ | Out_of_memory) as e) ->
    warn t "warm-state write for %s failed: %s" key (Printexc.to_string e);
    false

let dirty t ~key ~uses =
  Mutex.lock t.lock;
  let d =
    match Hashtbl.find_opt t.persisted_uses key with
    | Some u -> u <> uses
    | None -> true
  in
  Mutex.unlock t.lock;
  d

let tick t cache =
  Cache.with_idle cache (fun ~key ~uses compiled ->
      if dirty t ~key ~uses then ignore (save_entry t ~key ~uses compiled))
  |> ignore

let flush t cache = tick t cache

(* ------------------------------------------------------------------ *)
(* Rehydration. *)

exception Bad of string

let decode blob =
  let len = String.length blob in
  if len < 24 then raise (Bad (Printf.sprintf "too short (%d bytes)" len));
  if String.sub blob 0 8 <> magic then
    raise (Bad (Printf.sprintf "bad magic %S" (String.sub blob 0 8)));
  if String.sub blob 8 16 <> Digest.string (String.sub blob 24 (len - 24))
  then raise (Bad "checksum mismatch");
  (Marshal.from_string blob 24 : payload)

let load_entry path =
  let ic = open_in_bin path in
  let blob =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let payload = decode blob in
  let man = Bdd.Snapshot.load payload.p_snap in
  let model = Kripke.of_skeleton ~man payload.p_skel in
  let compiled =
    {
      Smv.Compile.model;
      specs = payload.p_specs;
      defines = payload.p_defines;
      clusters = payload.p_clusters;
    }
  in
  (* Mirror the compile-time rooting of the artifact's own diagrams
     (spec [Pred] sets and partition clusters): the snapshot's static
     root pins them today, but a later re-snapshot of this manager
     must keep pinning them through any number of [Bdd.gc] runs. *)
  let spec_preds =
    List.concat_map (fun (_, spec) -> Ctl.preds spec)
      compiled.Smv.Compile.specs
  in
  ignore
    (Bdd.add_root man (fun () -> spec_preds @ compiled.Smv.Compile.clusters)
      : Bdd.root);
  (payload.p_key, compiled)

let quarantine t path reason =
  let dest = path ^ ".quarantined" in
  (match Sys.rename path dest with
  | () -> ()
  | exception Sys_error e ->
    warn t "cannot quarantine %s: %s" path e);
  Mutex.lock t.lock;
  t.quarantines <- t.quarantines + 1;
  Mutex.unlock t.lock;
  warn t "quarantined warm-state file %s: %s" path reason

(* 0 when the count is missing or unreadable: the entry then ranks
   like a model used once. *)
let read_uses t key =
  match In_channel.with_open_bin (uses_path t key) In_channel.input_all with
  | s -> max 0 (Option.value ~default:0 (int_of_string_opt (String.trim s)))
  | exception Sys_error _ -> 0

let rehydrate t cache =
  let files =
    match Sys.readdir t.dir with
    | files -> Array.to_list files
    | exception Sys_error e ->
      warn t "cannot scan state dir %s: %s" t.dir e;
      []
  in
  List.iter
    (fun name ->
      if Filename.check_suffix name suffix then begin
        let path = Filename.concat t.dir name in
        let key_of_name = Filename.chop_suffix name suffix in
        match load_entry path with
        | key, compiled when key = key_of_name ->
          let uses = read_uses t key in
          if Cache.seed cache ~key ~uses ~compiled then begin
            Mutex.lock t.lock;
            t.restores <- t.restores + 1;
            (* Seeded entries start at their persisted count; recording
               it keeps the first watchdog tick from rewriting an
               identical snapshot. *)
            Hashtbl.replace t.persisted_uses key uses;
            Mutex.unlock t.lock
          end
        | _, _ -> quarantine t path "key does not match file name"
        | exception Bad reason -> quarantine t path reason
        | exception Bdd.Snapshot.Corrupt reason ->
          quarantine t path (Printf.sprintf "corrupt snapshot: %s" reason)
        | exception (Sys_error _ | Failure _ | Invalid_argument _) ->
          quarantine t path "unreadable or malformed"
      end)
    files;
  let c = counters t in
  c.restores
