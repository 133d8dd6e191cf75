(* dart_bench compare DIR_A DIR_B: for each workload and end-to-end
   metric, the two sets of untraced runs' medians and quartiles, the share
   of (a, b) pairs B wins, and a verdict against the metric's bound from
   BENCHMARK.json.  The exit code is 1 when any metric regressed. *)

let load dir =
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.filter_map (fun f ->
         match Report.of_json (Report.read_file (Filename.concat dir f)) with
         | r when not r.Report.traced -> Some r
         | _ -> None
         | exception (Failure _ | Sys_error _) -> None)

let values runs ~workload name =
  List.concat_map
    (fun (r : Report.t) ->
      if r.workload <> workload then []
      else
        List.filter_map
          (fun (x : Report.metric) -> if x.name = name then Some x.value else None)
          r.end_to_end)
    runs

let summary xs =
  match xs with
  | [] -> "-"
  | [ x ] -> Printf.sprintf "%.4g (n=1)" x
  | _ ->
    let q1, q2, q3 = Stats.quartiles xs in
    Printf.sprintf "%.4g [%.4g, %.4g] n=%d" q2 q1 q3 (List.length xs)

let run ~benchmark da db =
  let bench = Report.load_benchmark benchmark in
  let a = load da and b = load db in
  let regressed = ref false in
  Printf.printf "%-16s %-12s %-34s %-34s %6s  %s\n" "workload" "metric" ("A " ^ da) ("B " ^ db)
    "B wins" "verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun (d : Report.declared) ->
          let va = values a ~workload d.d_name and vb = values b ~workload d.d_name in
          if va <> [] && vb <> [] then begin
            let bound = Option.value ~default:0.0 d.d_bound in
            let v = Stats.verdict ~better:d.d_better ~bound va vb in
            if v = Stats.Regressed then regressed := true;
            Printf.printf "%-16s %-12s %-34s %-34s %5.0f%%  %s (bound %g%%)\n" workload d.d_name
              (summary va) (summary vb)
              (100.0 *. Stats.win_fraction ~better:d.d_better va vb)
              (Stats.verdict_to_string v) (100.0 *. bound)
          end)
        bench.e2e)
    bench.workloads;
  if !regressed then 1 else 0
