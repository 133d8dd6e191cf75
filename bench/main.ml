(* Benchmark harness: regenerates every experiment in EXPERIMENTS.md.

   Usage:
     dune exec bench/main.exe            run all experiments (E1-E9)
     dune exec bench/main.exe -- e4 e6   run a subset
     dune exec bench/main.exe -- micro   run the bechamel micro-benchmarks
     dune exec bench/main.exe -- score   write BENCH_scoreboard.json
     dune exec bench/main.exe -- diff BASE CURRENT
                                         compare two scoreboards (exit 1 on
                                         deterministic drift; timings only
                                         warn)

   Any experiment raising makes the harness exit nonzero after the
   remaining experiments have run, so CI catches a broken scenario even
   when a later one succeeds. *)

let experiments =
  [ ("e1", Exp_running_example.run);
    ("e3", Exp_wrapper.run);
    ("e4", Exp_validation.run);
    ("e5", Exp_minimality.run);
    ("e6", Exp_scaling.run);
    ("e8", Exp_pipeline.run);
    ("e9", Exp_ablations.run);
    ("e10", Exp_cqa.run);
    ("obs", Obs_snapshot.run);
    ("serve", Exp_serve.run);
    ("serve2", Exp_serve2.run);
    ("fault", Exp_fault.run);
    ("overload", Exp_overload.run);
    ("slo", Exp_slo.run);
    ("score", Exp_score.run);
    ("micro", Micro.run) ]

let () =
  let raw_args =
    match Array.to_list Sys.argv with _ :: args -> args | [] -> []
  in
  match raw_args with
  (* Scoreboard paths must keep their case (BENCH_scoreboard.json on a
     case-sensitive filesystem); only experiment ids are normalized. *)
  | [ d; base; current ] when String.lowercase_ascii d = "diff" ->
    exit (Report.scoreboard_diff base current)
  | d :: _ when String.lowercase_ascii d = "diff" ->
    Printf.eprintf "usage: main.exe -- diff BASE_SCOREBOARD CURRENT_SCOREBOARD\n";
    exit 2
  | _ ->
    let requested = List.map String.lowercase_ascii raw_args in
    let requested =
      match requested with
      | [] ->
        (* micro and score are opt-in *)
        [ "e1"; "e3"; "e4"; "e5"; "e6"; "e8"; "e9"; "e10"; "obs"; "serve";
          "serve2"; "slo" ]
      | rs -> rs
    in
    let failures = ref [] in
    List.iter
      (fun id ->
        match List.assoc_opt id experiments with
        | Some run -> (
          match Report.time run with
          | _, elapsed -> Printf.printf "  [%s done in %.1fs]\n%!" id elapsed
          | exception e ->
            failures := id :: !failures;
            Printf.eprintf "  [%s FAILED: %s]\n%!" id (Printexc.to_string e))
        | None ->
          Printf.eprintf "unknown experiment %S; available: %s\n" id
            (String.concat ", " (List.map fst experiments));
          exit 1)
      requested;
    match List.rev !failures with
    | [] -> ()
    | fs ->
      Printf.eprintf "%d experiment(s) failed: %s\n" (List.length fs)
        (String.concat ", " fs);
      exit 1
