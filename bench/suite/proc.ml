(* The server under test as a subprocess, and the scratch directory its
   socket and data live in.  Everything is created under [.bench_run/]
   in the current directory and removed again; every spawned server is
   reaped, also when the benchmark fails or is interrupted. *)

module Client = Dart_server.Client
module Proto = Dart_server.Proto

let run_root = ".bench_run"

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec copy_tree src dst =
  match (Unix.lstat src).Unix.st_kind with
  | Unix.S_DIR ->
    Unix.mkdir dst 0o755;
    Array.iter
      (fun e -> copy_tree (Filename.concat src e) (Filename.concat dst e))
      (Sys.readdir src)
  | _ ->
    let ic = open_in_bin src and oc = open_out_bin dst in
    Fun.protect
      ~finally:(fun () -> close_in ic; close_out oc)
      (fun () -> output_string oc (really_input_string ic (in_channel_length ic)))

(* ------------------------------------------------------------------ *)
(* Peak memory                                                         *)
(* ------------------------------------------------------------------ *)

(** VmHWM of a process, in MB ([0.0] when /proc does not say). *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  match open_in path with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
      | _ -> scan ()
      | exception End_of_file -> 0.0
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* Server subprocess                                                   *)
(* ------------------------------------------------------------------ *)

type server = {
  pid : int;
  addr : Proto.addr;
  mutable alive : bool;
}

let live : server list ref = ref []

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(** Stop a server with [signal] and wait until it has exited; a server
    still running [grace_s] after a polite signal is killed. *)
let stop ?(signal = Sys.sigterm) ?(grace_s = 10.0) s =
  if s.alive then begin
    (try Unix.kill s.pid signal with Unix.Unix_error _ -> ());
    let deadline = Unix.gettimeofday () +. grace_s in
    while not (exited s.pid) do
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] s.pid)
      end
      else Unix.sleepf 0.01
    done;
    s.alive <- false;
    live := List.filter (fun s' -> s'.pid <> s.pid) !live
  end

let () =
  (* A server that died mid-request must not kill the benchmark. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* An interrupted benchmark still reaps its servers (via at_exit). *)
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ]

(* At exit, kill the servers still running, then remove the scratch
   directory; [.bench_run] itself goes too once no other run uses it. *)
let work_dir name =
  (try Unix.mkdir run_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat run_root (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  at_exit (fun () ->
      List.iter (stop ~signal:Sys.sigkill) !live;
      rm_rf dir;
      try Unix.rmdir run_root with Unix.Unix_error _ -> ());
  dir

(** The program's own binary, as built next to the benchmark. *)
let server_exe = ref "_build/default/bin/dart_cli.exe"

(** Start [dart-cli serve] on a Unix socket in [dir] with one worker
    domain; its output goes to [dir]/server.log.  Returns once the
    process exists, not once it answers (see {!wait_ready}). *)
let spawn ?data_dir ~dir () =
  let sock = Filename.concat dir "s.sock" in
  let args =
    [ !server_exe; "serve"; "--addr"; "unix:" ^ sock; "--domains"; "1" ]
    @ match data_dir with Some d -> [ "--data-dir"; d ] | None -> []
  in
  let log =
    Unix.openfile (Filename.concat dir "server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close log) (fun () ->
        Unix.create_process !server_exe (Array.of_list args) Unix.stdin log log)
  in
  let s = { pid; addr = Proto.Unix_sock sock; alive = true } in
  live := s :: !live;
  s

(** Poll with [ping] until the server answers; [Error] if it exits or
    stays silent for [timeout_s]. *)
let wait_ready ?(timeout_s = 60.0) s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let answered =
      match Client.with_connection ~timeout_s:5.0 s.addr Client.ping with
      | Ok () -> true
      | Error _ -> false
      | exception Unix.Unix_error _ -> false
    in
    if answered then Ok ()
    else if exited s.pid then begin
      s.alive <- false;
      Error "server exited during start-up (see server.log)"
    end
    else if Unix.gettimeofday () > deadline then Error "server did not answer ping"
    else begin
      Unix.sleepf 0.005;
      go ()
    end
  in
  go ()
