let () =
  Alcotest.run "jobench"
    [
      ("util", Test_util.suite);
      ("storage", Test_storage.suite);
      ("query", Test_query.suite);
      ("datagen", Test_datagen.suite);
      ("sqlfront", Test_sqlfront.suite);
      ("dbstats", Test_dbstats.suite);
      ("cardest", Test_cardest.suite);
      ("cost", Test_cost.suite);
      ("plan", Test_plan.suite);
      ("planner", Test_planner.suite);
      ("verify", Test_verify.suite);
      ("domlint", Test_domlint.suite);
      ("obs", Test_obs.suite);
      ("registry", Test_registry.suite);
      ("parallel", Test_parallel.suite);
      ("exec", Test_exec.suite);
      ("morsel", Test_morsel.suite);
      ("serve", Test_serve.suite);
      ("kernels", Test_kernels.suite);
      ("workload", Test_workload.suite);
      ("experiments", Test_experiments.suite);
      ("extensions", Test_extensions.suite);
      ("reopt", Test_reopt.suite);
      ("csv", Test_csv.suite);
      ("integration", Test_integration.suite);
      ("cli", Test_cli.suite);
    ]
