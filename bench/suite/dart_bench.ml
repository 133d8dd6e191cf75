(* dart_bench — the product-path benchmark.

   One workload in this process (prints metric lines, then one JSON
   result line):
     dart_bench --workload NAME --seed N --seconds S --trace 0|1

   Every workload (or the named ones), each in a fresh process:
     dart_bench run [NAME...] --seed N [--seconds S] [--trace] [--smoke]

   Two sets of result files, metric by metric:
     dart_bench compare DIR_A DIR_B

   Common options: --server PATH (the dart-cli binary, default
   _build/default/bin/dart_cli.exe), --out DIR (result files, default
   .bench_results), --benchmark FILE (default BENCHMARK.json). *)

(* Each workload, with the name of the span that is one op in its
   self-time table. *)
let workloads =
  [ ("repair-mix", ("op", fun o -> Inproc.run (Inproc.repair_mix ~smoke:o.Report.smoke) o));
    ("detect-large", ("op", fun o -> Inproc.run (Inproc.detect_large ~smoke:o.Report.smoke) o));
    ("serve-hit", ("request", Serve_hit.run));
    ("session-durable", ("op", Session_durable.run)) ]

let usage () =
  prerr_endline
    "usage: dart_bench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]\n\
    \       dart_bench run [NAME...] --seed N [--seconds S] [--trace] [--smoke]\n\
    \       dart_bench compare DIR_A DIR_B\n\
     options: --server PATH  --out DIR  --benchmark FILE";
  exit 2

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)
(* ------------------------------------------------------------------ *)

type args = {
  mutable positional : string list;
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable smoke : bool;
  mutable out : string;
  mutable benchmark : string;
}

let parse argv =
  let a =
    { positional = []; workload = None; seed = 1; seconds = 20.0; trace = false; smoke = false;
      out = ".bench_results"; benchmark = "BENCHMARK.json" }
  in
  let int_of s = match int_of_string_opt s with Some i -> i | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> a.workload <- Some v; go rest
    | "--seed" :: v :: rest -> a.seed <- int_of v; go rest
    | "--seconds" :: v :: rest ->
      a.seconds <- (match float_of_string_opt v with Some f when f > 0.0 -> f | _ -> usage ());
      go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> a.trace <- v = "1"; go rest
    | "--trace" :: rest -> a.trace <- true; go rest
    | "--smoke" :: rest -> a.smoke <- true; go rest
    | "--server" :: v :: rest -> Proc.server_exe := v; go rest
    | "--out" :: v :: rest -> a.out <- v; go rest
    | "--benchmark" :: v :: rest -> a.benchmark <- v; go rest
    | v :: rest when String.length v > 0 && v.[0] <> '-' ->
      a.positional <- a.positional @ [ v ];
      go rest
    | _ -> usage ()
  in
  go argv;
  a

let ensure_dir d = try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* One file per run: repeated runs of a seed add up for [compare]. *)
let result_file a name ~pid =
  Filename.concat a.out
    (Printf.sprintf "%s-seed%d%s-%d.json" name a.seed (if a.trace then "-trace" else "") pid)

(* ------------------------------------------------------------------ *)
(* One workload in this process                                        *)
(* ------------------------------------------------------------------ *)

let run_one a name =
  let root, run =
    match List.assoc_opt name workloads with
    | Some f -> f
    | None ->
      Printf.eprintf "unknown workload %S\n" name;
      exit 2
  in
  if not (Sys.file_exists !Proc.server_exe) then begin
    Printf.eprintf "dart_bench: server binary %s not found\n" !Proc.server_exe;
    exit 2
  end;
  let r =
    run { Report.seed = a.seed; seconds = a.seconds; traced = a.trace; smoke = a.smoke }
  in
  ensure_dir a.out;
  let pid = Unix.getpid () in
  Report.write_file (result_file a name ~pid) (Dart_obs.Obs.Json.to_string (Report.to_json r));
  if a.trace then begin
    let base = Filename.concat a.out (Printf.sprintf "%s-seed%d-%d" name a.seed pid) in
    Report.write_file (base ^ ".trace-events.json") (Tracer.chrome_json ());
    let table, wall, attributed = Tracer.self_time_table ~root in
    Report.write_file (base ^ ".selftime.txt") table;
    if wall > 0.0 then
      Printf.eprintf "%s self times (%.1f%% of op wall attributed):\n%s%!" name
        (100.0 *. attributed /. wall) table
  end;
  Report.print r;
  exit (if r.Report.correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Several workloads, each in a fresh process                          *)
(* ------------------------------------------------------------------ *)

(* A smoke run keeps each child's output in a log, shown only when the
   child fails. *)
let spawn_one a name ~trace =
  let args =
    [ Sys.executable_name; "--workload"; name; "--seed"; string_of_int a.seed; "--seconds";
      Printf.sprintf "%g" a.seconds; "--trace"; (if trace then "1" else "0"); "--server";
      !Proc.server_exe; "--out"; a.out ]
    @ if a.smoke then [ "--smoke" ] else []
  in
  let log =
    Filename.concat a.out (Printf.sprintf "%s%s.log" name (if trace then "-trace" else ""))
  in
  let out =
    if a.smoke then Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    else Unix.stdout
  in
  let pid = Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin out out in
  let code = match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> 128 in
  if a.smoke then begin
    Unix.close out;
    if code <> 0 then prerr_string (Report.read_file log)
  end;
  (code, pid)

let run_many a =
  let names = if a.positional = [] then List.map fst workloads else a.positional in
  List.iter (fun n -> if not (List.mem_assoc n workloads) then usage ()) names;
  ensure_dir a.out;
  let traces = if a.smoke then [ false; true ] else [ a.trace ] in
  let failures = ref [] in
  let bench = if a.smoke then Some (Report.load_benchmark a.benchmark) else None in
  (match bench with
   | Some b when b.Report.workloads <> List.map fst workloads ->
     failures := [ "BENCHMARK.json declares other workloads than dart_bench runs" ]
   | _ -> ());
  List.iter
    (fun name ->
      List.iter
        (fun trace ->
          let code, pid = spawn_one a name ~trace in
          let what = Printf.sprintf "%s%s" name (if trace then " (traced)" else "") in
          if code <> 0 then failures := Printf.sprintf "%s exited %d" what code :: !failures;
          match Report.of_json (Report.read_file (result_file { a with trace } name ~pid)) with
          | exception (Sys_error _ | Failure _) ->
            failures := Printf.sprintf "%s wrote no result" what :: !failures
          | r ->
            Option.iter
              (fun b -> failures := List.rev_append (Report.check_declared b r) !failures)
              bench)
        traces)
    names;
  if a.smoke && Sys.file_exists Proc.run_root then
    failures := Printf.sprintf "%s was left behind" Proc.run_root :: !failures;
  List.iter (fun f -> Printf.printf "FAIL %s\n" f) (List.rev !failures);
  if !failures <> [] then exit 1;
  if a.smoke then
    Printf.printf "smoke: %d workloads, traced and untraced, correct and as declared\n"
      (List.length names)

let () =
  match Array.to_list Sys.argv with
  | _ :: "compare" :: rest ->
    let a = parse rest in
    (match a.positional with
     | [ da; db ] -> exit (Compare.run ~benchmark:a.benchmark da db)
     | _ -> usage ())
  | _ :: "run" :: rest -> run_many (parse rest)
  | _ :: rest ->
    let a = parse rest in
    (match a.workload with Some w when a.positional = [] -> run_one a w | _ -> usage ())
  | [] -> usage ()
