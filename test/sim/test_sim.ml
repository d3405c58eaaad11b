let () =
  Alcotest.run "sim"
    [
      ("config", Test_config.suite);
      ("geometry", Test_geometry.suite);
      ("memory", Test_memory.suite);
      ("cache", Test_cache.suite);
      ("numa", Test_numa.suite);
      ("machine", Test_machine.suite);
      ("spinlock", Test_spinlock.suite);
      ("litmus", Test_litmus.suite);
      ("fastpath", Test_fastpath.suite);
      ("runahead", Test_runahead.suite);
    ]
