let () =
  Alcotest.run "scenario"
    [
      ("tracefmt", Test_tracefmt.suite);
      ("library", Test_library.suite);
      ("pathology", Test_pathology.suite);
      ("identical", Test_identical.suite);
      ("golden", Test_golden.suite);
    ]
