(* Aggregated alcotest entry point; each test_* module exports a [suite]. *)

let () =
  Alcotest.run "dart"
    [ ("bignat", Test_bignat.suite);
      ("bigint", Test_bigint.suite);
      ("rat", Test_rat.suite);
      ("simplex", Test_simplex.suite);
      ("milp", Test_milp.suite);
      ("warm", Test_warm.suite);
      ("sparse", Test_sparse.suite);
      ("relational", Test_relational.suite);
      ("constraints", Test_constraints.suite);
      ("agg_index", Test_agg_index.suite);
      ("repair", Test_repair.suite);
      ("html", Test_html.suite);
      ("textdict", Test_textdict.suite);
      ("acquire", Test_acquire.suite);
      ("ocr", Test_ocr.suite);
      ("wrapper", Test_wrapper.suite);
      ("datagen", Test_datagen.suite);
      ("pipeline", Test_pipeline.suite);
      ("cqa", Test_cqa.suite);
      ("convert", Test_convert.suite);
      ("quarterly", Test_quarterly.suite);
      ("obs", Test_obs.suite);
      ("server", Test_server.suite);
      ("trace", Test_trace.suite);
      ("resilience", Test_resilience.suite);
      ("faultsim", Test_faultsim.suite);
      ("durable", Test_durable.suite);
      ("overload", Test_overload.suite);
      ("slo", Test_slo.suite);
      ("health", Test_health.suite) ]
