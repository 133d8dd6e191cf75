(* The two in-process workloads: one caller in a closed loop, calling
   the pipeline library directly.

   repair-mix   acquire → detect → card-minimal repair over all four
                scenarios, solve cache off.  The solver layers do nearly
                all the work; acquisition is under 1%.
   detect-large acquire → detect (the [check] path) on large documents
                read through the OCR noise channel.  HTML, wrapper,
                dictionary and constraint evaluation do all the work; the
                solver does none. *)

open Dart
open Dart_relational
open Dart_constraints
open Dart_wrapper
module Solver = Dart_repair.Solver
module Encode = Dart_repair.Encode
module M = Dart_lp.Milp.Make (Dart_lp.Field_rat)
module Cancel = Dart_resilience.Cancel
module Obs = Dart_obs.Obs

let op_timeout_ms = 30_000.0

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

(* One cycle of each workload, as (scenario, years, errors).  Runs are
   whole cycles, so every run has the same mix.  The shares are chosen so
   that p50 and p90 fall inside a class, not on the gap between two:
   there a different seed's documents would move them by a class.

   repair-mix: quarterly (2-D components) is a quarter of the documents
   and p90 sits mid-class; as one 2-error document in eight, p90 sat in
   the sparse tail of 13 samples and spread 25% across seeds.
   detect-large: the four sizes take 16, 30, 53 and 66 ms; balance
   sheets are doubled so that p50 is not the gap between 30 and 53. *)
let repair_cycle ~smoke =
  if smoke then
    Docs.[ (Cash_budget, 2, 1); (Balance_sheet, 1, 1); (Catalog, 0, 1); (Quarterly, 1, 1) ]
  else
    Docs.
      [ (Cash_budget, 8, 2); (Cash_budget, 24, 6); (Cash_budget, 24, 6); (Balance_sheet, 4, 3);
        (Balance_sheet, 4, 3); (Catalog, 0, 2); (Quarterly, 2, 1); (Quarterly, 2, 1) ]

let detect_cycle ~smoke =
  if smoke then Docs.[ (Cash_budget, 4, 0); (Quarterly, 2, 0) ]
  else
    Docs.
      [ (Cash_budget, 48, 0); (Balance_sheet, 48, 0); (Balance_sheet, 48, 0);
        (Cash_budget, 96, 0); (Quarterly, 48, 0) ]

type spec = {
  name : string;
  cycle : (Docs.kind * int * int) list;
  pool_cycles : int;  (* distinct cycles generated; the run wraps around *)
  min_cycles : int;   (* keep going past the window (up to four) until this many *)
  repair : bool;
  make : Docs.kind -> years:int -> errors:int -> Dart_rand.Prng.t -> Docs.doc;
}

let repair_mix ~smoke =
  { name = "repair-mix"; cycle = repair_cycle ~smoke; pool_cycles = (if smoke then 1 else 16);
    (* p90 needs ten samples beyond it *)
    min_cycles = (if smoke then 1 else 13); repair = true;
    make = (fun k ~years ~errors prng -> Docs.corrupted k ~years ~errors prng) }

let detect_large ~smoke =
  { name = "detect-large"; cycle = detect_cycle ~smoke; pool_cycles = (if smoke then 1 else 20);
    min_cycles = (if smoke then 1 else 21); repair = false;
    make = (fun k ~years ~errors:_ prng -> Docs.noisy k ~years prng) }

let pool spec ~seed =
  let per = List.length spec.cycle in
  Array.init (spec.pool_cycles * per) (fun i ->
      let k, years, errors = List.nth spec.cycle (i mod per) in
      spec.make k ~years ~errors (Docs.prng_for ~workload:spec.name ~seed i))

(* ------------------------------------------------------------------ *)
(* One op                                                              *)
(* ------------------------------------------------------------------ *)

type answer = {
  doc : int;                    (* index into the pool *)
  violations : int;             (* violating substitutions found *)
  repaired : (Database.t * Solver.result) option;  (* acquired instance, repair *)
  lat_ms : float;
}

let count_violations v = List.fold_left (fun acc (_, ts) -> acc + List.length ts) 0 v

(* The product path, as the CLI and server run it. *)
let op_plain spec sc (d : Docs.doc) =
  let acq = Pipeline.acquire sc d.Docs.html in
  let v = Pipeline.detect sc acq.Pipeline.db in
  let r =
    if spec.repair then
      Some (Pipeline.repair ~cancel:(Cancel.create ~deadline_ms:op_timeout_ms ()) sc acq.Pipeline.db)
    else None
  in
  (acq.Pipeline.db, v, r)

(* The same calls made stage by stage, so that each layer's time is the
   benchmark's own span around a public function ([Pipeline.acquire] is
   exactly convert → extract → generate). *)
let op_traced spec (sc : Scenario.t) (d : Docs.doc) =
  Tracer.span "op" (fun () ->
      let html = Tracer.span "acquire.convert" (fun () -> Convert.to_html Convert.Html d.Docs.html) in
      let ex = Tracer.span "acquire.extract" (fun () -> Extractor.extract sc.metadata html) in
      let gen =
        Tracer.span "acquire.dbgen" (fun () ->
            Db_gen.generate sc.metadata sc.mapping ex.Extractor.instances
              (Database.create sc.schema))
      in
      let db = gen.Db_gen.db in
      let v = Tracer.span "constraints.detect" (fun () -> Pipeline.detect sc db) in
      let r =
        if spec.repair then
          Some
            (Tracer.span "repair.card_minimal" (fun () ->
                 Pipeline.repair ~cancel:(Cancel.create ~deadline_ms:op_timeout_ms ()) sc db))
        else None
      in
      (html, ex, db, v, r))

(* Layer facts gathered in traced runs, summed over ops. *)
type acc = {
  mutable ops : int;
  mutable op_ms : float;
  mutable match_rate : float;
  mutable tuples : int;
  mutable ground_rows : int;
  mutable violated : int;
  mutable minor_words : float;
  mutable major_cols : int;
  mutable lp_counters : int array;   (* deltas of [lp_counter_names] *)
}

let new_acc () =
  { ops = 0; op_ms = 0.0; match_rate = 0.0; tuples = 0; ground_rows = 0; violated = 0;
    minor_words = 0.0; major_cols = 0; lp_counters = [| 0; 0; 0 |] }

let lp_counter_names =
  [ "lp.simplex.dense_fallbacks"; "lp.simplex.bland_fallbacks"; "lp.simplex.refactorizations" ]

let lp_counters () =
  Array.of_list (List.map (fun n -> Obs.Metrics.value (Obs.Metrics.counter n)) lp_counter_names)

(* Attribution probes, run after the op: how much of [card_minimal] was
   grounding, decomposition, encoding and the exact MILP solves, and how
   much of extraction was HTML parsing.  They repeat the op's calls on the
   same inputs (first big-M attempt only). *)
let probes spec (sc : Scenario.t) html db (acc : acc) =
  ignore (Tracer.probe ~parent:(Tracer.last "acquire.extract") "html.parse" (fun () ->
      Dart_html.Table.of_html html));
  let owner = if spec.repair then Tracer.last "repair.card_minimal" else -1 in
  let rows, _ =
    Tracer.probe ~parent:owner "constraints.ground" (fun () ->
        Ground.of_constraints db sc.constraints)
  in
  acc.ground_rows <- acc.ground_rows + List.length rows;
  if spec.repair then begin
    let comps, _ = Tracer.probe ~parent:owner "repair.decompose" (fun () -> Solver.components rows) in
    let value = Ground.db_valuation db in
    List.iter
      (fun comp ->
        if not (List.for_all (Ground.row_satisfied value) comp) then begin
          let enc, _ = Tracer.probe ~parent:owner "repair.encode" (fun () -> Encode.build db comp) in
          ignore
            (Tracer.probe ~parent:owner "lp.milp" (fun () ->
                 M.solve ~max_nodes:2_000_000 ~integral_objective:true enc.Encode.problem))
        end)
      comps
  end

(* One traced op plus its probes; the op's own time is returned. *)
let traced_op spec sc d acc =
  let gc0 = Gc.quick_stat () and c0 = lp_counters () in
  let t0 = Obs.now_ms () in
  let html, ex, db, v, r = op_traced spec sc d in
  let lat_ms = Obs.elapsed_ms ~since:t0 in
  let gc1 = Gc.quick_stat () and c1 = lp_counters () in
  acc.ops <- acc.ops + 1;
  acc.op_ms <- acc.op_ms +. lat_ms;
  acc.minor_words <- acc.minor_words +. (gc1.Gc.minor_words -. gc0.Gc.minor_words);
  acc.major_cols <- acc.major_cols + (gc1.Gc.major_collections - gc0.Gc.major_collections);
  Array.iteri (fun j x -> acc.lp_counters.(j) <- acc.lp_counters.(j) + x - c0.(j)) c1;
  acc.match_rate <- acc.match_rate +. Extractor.match_rate ex;
  acc.tuples <- acc.tuples + Database.cardinality db;
  acc.violated <- acc.violated + count_violations v;
  probes spec sc html db acc;
  (db, v, r, lat_ms)

let acquire_metrics acc =
  let per x = x /. float_of_int (max 1 acc.ops) in
  let self = Tracer.ms_per_op ~ops:acc.ops in
  [ ("html.parse_ms", self "html.parse"); ("acquire.convert_ms", self "acquire.convert");
    ("acquire.extract_ms", self "acquire.extract"); ("acquire.dbgen_ms", self "acquire.dbgen");
    ("acquire.match_rate", per acc.match_rate); ("acquire.tuples", per (float_of_int acc.tuples));
    ("constraints.detect_ms", self "constraints.detect");
    ("constraints.ground_ms", self "constraints.ground");
    ("constraints.ground_rows", per (float_of_int acc.ground_rows));
    ("constraints.violated", per (float_of_int acc.violated)) ]

(** Acquisition, detection and grounding measured bench-side on the
    documents a wire workload sends: the per-request work the server
    does before any solving.  Needs tracing on. *)
let acquire_layers docs =
  let spec = detect_large ~smoke:true in
  let acc = new_acc () in
  List.iter (fun (d : Docs.doc) -> ignore (traced_op spec (Docs.scenario d.Docs.kind) d acc)) docs;
  acquire_metrics acc

(* ------------------------------------------------------------------ *)
(* Correctness                                                         *)
(* ------------------------------------------------------------------ *)

(* A repair is right when it is exact-or-degraded but valid: applying it
   yields a database that passes detection, and it changes no more cells
   than were corrupted. *)
let check_repair sc (d : Docs.doc) db = function
  | Solver.Repaired (rho, prov, _) ->
    let card = Dart_repair.Repair.cardinality rho in
    let fixed = Dart_repair.Update.apply db rho in
    if not (Pipeline.consistent sc fixed) then Error "repaired database fails detection"
    else if card > d.Docs.errors then
      Error (Printf.sprintf "repair changes %d cells, %d were corrupted" card d.Docs.errors)
    else Ok (prov = Solver.Exact)
  | Solver.Consistent -> Error "corrupted document acquired as consistent"
  | Solver.No_repair _ -> Error "no repair found"
  | Solver.Node_budget_exceeded _ -> Error "node budget exceeded"
  | Solver.Cancelled _ -> Error "timed out"

(* Detection agrees with the ground system: the violated ground rows are
   exactly the violating substitutions detect reported. *)
let check_detection sc (d : Docs.doc) a =
  let acq = Pipeline.acquire sc d.Docs.html in
  let v = Pipeline.detect sc acq.Pipeline.db in
  let rows = Ground.of_constraints acq.Pipeline.db sc.Scenario.constraints in
  let value = Ground.db_valuation acq.Pipeline.db in
  let from_rows =
    List.sort compare
      (List.filter_map
         (fun r -> if Ground.row_satisfied value r then None else Some r.Ground.origin)
         rows)
  in
  let from_detect =
    List.sort compare
      (List.concat_map
         (fun ((k : Agg_constraint.t), thetas) ->
           List.map (fun th -> k.name ^ " " ^ Ground.string_of_theta th) thetas)
         v)
  in
  if from_rows <> from_detect then Error "detect disagrees with the ground system"
  else if List.length from_detect <> a.violations then Error "detection is not deterministic"
  else Ok true

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let run spec (o : Report.opts) : Report.t =
  Solver.Cache.set_budget_bytes 0;
  let scen (d : Docs.doc) = Docs.scenario d.Docs.kind in
  (* Set-up: build the inputs and answer one of them untimed. *)
  let pool, setup_s =
    Report.repeated_setup 7 ~teardown:ignore ~setup:(fun () ->
        let p = pool spec ~seed:o.seed in
        ignore (op_plain spec (scen p.(0)) p.(0));
        p)
  in
  Tracer.enabled := o.traced;
  let acc = new_acc () in
  let answers = ref [] in
  let n = ref 0 in
  let t_start = Obs.now_ms () in
  let per = List.length spec.cycle in
  let windows () = (Obs.now_ms () -. t_start) /. (o.seconds *. 1000.0) in
  while
    !n mod per <> 0 || windows () < 1.0 || (!n < spec.min_cycles * per && windows () < 4.0)
  do
    let i = !n mod Array.length pool in
    let d = pool.(i) in
    let sc = scen d in
    let db, v, r, lat_ms =
      if o.traced then traced_op spec sc d acc
      else begin
        let t0 = Obs.now_ms () in
        let db, v, r = op_plain spec sc d in
        (db, v, r, Obs.elapsed_ms ~since:t0)
      end
    in
    let repaired = Option.map (fun r -> (db, r)) r in
    answers := { doc = i; violations = count_violations v; repaired; lat_ms } :: !answers;
    incr n
  done;
  let window_s = (Obs.now_ms () -. t_start) /. 1000.0 in
  let answers = List.rev !answers in
  (* Checks run after the timed window.  Every repair is checked;
     detection is re-derived from the ground system for a sample of the
     distinct documents (grounding a 96-year budget costs more than
     detecting it). *)
  let problems = ref [] and failed = ref 0 and exact = ref 0 and repairs = ref 0 in
  let checked = Hashtbl.create 16 in
  List.iter
    (fun a ->
      let d = pool.(a.doc) in
      let verdict =
        match a.repaired with
        | Some (db, r) -> check_repair (scen d) d db r
        | None when Hashtbl.length checked < 8 && not (Hashtbl.mem checked a.doc) ->
          Hashtbl.add checked a.doc ();
          check_detection (scen d) d a
        | None -> Ok true
      in
      if a.repaired <> None then incr repairs;
      match verdict with
      | Ok is_exact -> if is_exact && a.repaired <> None then incr exact
      | Error e ->
        incr failed;
        if List.length !problems < 5 then
          problems := Printf.sprintf "%s (doc %d): %s" d.Docs.label a.doc e :: !problems)
    answers;
  let solved =
    List.filter_map
      (fun a ->
        match a.repaired with
        | Some (_, Solver.Repaired (rho, _, s)) -> Some (s, Dart_repair.Repair.cardinality rho)
        | _ -> None)
      answers
  in
  let lat = List.map (fun a -> a.lat_ms) answers in
  let ops = List.length answers in
  let answered = if spec.repair then !repairs else ops in
  let exact = if spec.repair then !exact else ops in
  let end_to_end =
    Report.end_to_end ~setup_s ~ops_per_s:(float_of_int ops /. window_s) ~lat_ms:lat
      ~attempted:ops ~failed:!failed ~exact
      ~answers:answered ~rss_mb:(Proc.peak_rss_mb 0)
  in
  let per_layer =
    if not o.traced then []
    else begin
      let per x = x /. float_of_int ops in
      let sum f = float_of_int (List.fold_left (fun s x -> s + f x) 0 solved) in
      let stat f = sum (fun (s, _) -> f s) in
      let self = Tracer.ms_per_op ~ops in
      let milp_ms = self "lp.milp" in
      let nodes = stat (fun s -> s.Solver.nodes) in
      let pivots = stat (fun s -> s.Solver.simplex_pivots) in
      let counter j = per (float_of_int acc.lp_counters.(j)) in
      Report.per_layer
        (acquire_metrics acc
         @ [ ("gc.minor_mb_per_op",
              per (acc.minor_words *. float_of_int (Sys.word_size / 8) /. 1048576.0));
             ("gc.major_collections_per_op", per (float_of_int acc.major_cols));
             ("trace.ops_per_s", float_of_int ops /. (acc.op_ms /. 1000.0)) ]
         @
         if not spec.repair then []
         else
           [ ("repair.decompose_ms", self "repair.decompose");
             ("repair.components", per (stat (fun s -> s.Solver.components)));
             ("repair.encode_ms", self "repair.encode");
             ("repair.milp_vars", per (stat (fun s -> s.Solver.milp_vars)));
             ("repair.milp_rows", per (stat (fun s -> s.Solver.milp_rows)));
             ("repair.card_minimal_ms", Tracer.ms_per_op ~self:false ~ops "repair.card_minimal");
             ("repair.unattributed_ms", self "repair.card_minimal");
             ("repair.m_retries", per (stat (fun s -> s.Solver.m_retries)));
             ("repair.cardinality", per (sum snd));
             ("lp.milp_ms", milp_ms); ("lp.nodes", per nodes); ("lp.pivots", per pivots);
             ("lp.dual_pivots", per (stat (fun s -> s.Solver.dual_pivots)));
             ("lp.warm_starts", per (stat (fun s -> s.Solver.warm_starts)));
             ("lp.warm_fallbacks", per (stat (fun s -> s.Solver.warm_fallbacks)));
             ("lp.us_per_node",
              if nodes > 0.0 then milp_ms *. float_of_int ops *. 1000.0 /. nodes else 0.0);
             ("lp.pivots_per_node", if nodes > 0.0 then pivots /. nodes else 0.0);
             ("lp.dense_fallbacks", counter 0); ("lp.bland_fallbacks", counter 1);
             ("lp.refactorizations", counter 2) ])
    end
  in
  { Report.workload = spec.name; seed = o.seed; traced = o.traced;
    correct = !failed = 0 && Report.sample_problems o lat = [];
    attempted = ops; failed = !failed; end_to_end; per_layer;
    problems = List.rev !problems @ Report.sample_problems o lat }
