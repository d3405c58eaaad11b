let () =
  Alcotest.run "kma"
    [
      ("params", Test_params.suite);
      ("layout", Test_layout.suite);
      ("freelist", Test_freelist.suite);
      ("vmblk", Test_vmblk.suite);
      ("pagepool", Test_pagepool.suite);
      ("global", Test_global.suite);
      ("percpu", Test_percpu.suite);
      ("kmem", Test_kmem.suite);
      ("debug", Test_debug.suite);
      ("kstats", Test_kstats.suite);
      ("pressure", Test_pressure.suite);
    ]
