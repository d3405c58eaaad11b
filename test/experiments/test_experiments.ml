let () =
  Alcotest.run "experiments"
    [
      ("workloads", Test_workloads.suite);
      ("figures", Test_figures.suite);
      ("trace", Test_trace.suite);
      ("plot", Test_plot.suite);
      ("equivalence", Test_equivalence.suite);
      ("geomsweep", Test_geomsweep.suite);
      ("numa-exp", Test_numa_exp.suite);
      ("resumes", Test_resumes.suite);
    ]
