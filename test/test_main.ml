let () =
  Alcotest.run "nestjoin"
    [
      ("value", Test_value.suite);
      ("ctype", Test_ctype.suite);
      ("env", Test_env.suite);
      ("parser", Test_parser.suite);
      ("types", Test_types.suite);
      ("interp", Test_interp.suite);
      ("algebra", Test_algebra.suite);
      ("engine", Test_engine.suite);
      ("classify", Test_classify.suite);
      ("decorrelate", Test_decorrelate.suite);
      ("planner", Test_planner.suite);
      ("workload", Test_workload.suite);
      ("e2e", Test_e2e.suite);
      ("random-queries", Test_random_queries.suite);
      ("schema", Test_schema.suite);
      ("rewrite", Test_rewrite.suite);
      ("build", Test_build.suite);
      ("equivalences", Test_equivalences.suite);
      ("compile", Test_compile.suite);
      ("simplify", Test_simplify.suite);
      ("reorder", Test_reorder.suite);
      ("variants", Test_variants.suite);
      ("stats", Test_stats.suite);
      ("bloom", Test_bloom.suite);
      ("batch", Test_batch.suite);
      ("verify", Test_verify.suite);
      ("certify", Test_certify.suite);
      ("lint", Test_lint.suite);
      ("obs", Test_obs.suite);
      ("profile", Test_profile.suite);
      ("shred", Test_shred.suite);
      ("server", Test_server.suite);
      ("morsel", Test_morsel.suite);
    ]
