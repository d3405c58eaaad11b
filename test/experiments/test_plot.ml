(* Gnuplot emission: files exist, headers and columns line up. *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  go 0

let test_fig7_files () =
  let points =
    [
      { Experiments.Fig7.which = Baseline.Allocator.Cookie; ncpus = 1; ops = 0;
        ops_per_sec = 100.; stats = None };
      { Experiments.Fig7.which = Baseline.Allocator.Cookie; ncpus = 2; ops = 0;
        ops_per_sec = 200.; stats = None };
      { Experiments.Fig7.which = Baseline.Allocator.Mk; ncpus = 1; ops = 0;
        ops_per_sec = 50.; stats = None };
      { Experiments.Fig7.which = Baseline.Allocator.Mk; ncpus = 2; ops = 0;
        ops_per_sec = 25.; stats = None };
    ]
  in
  let prefix = Filename.temp_file "fig7" "" in
  Experiments.Plot.write_fig7 points ~prefix;
  let dat = In_channel.with_open_text (prefix ^ ".dat") In_channel.input_all in
  (match String.split_on_char '\n' dat with
  | header :: row1 :: row2 :: _ ->
      Alcotest.(check string) "header" "# cpus\tcookie\tmk" header;
      Alcotest.(check bool) "row 1" true (contains row1 "1\t100");
      Alcotest.(check bool) "row 2" true (contains row2 "2\t200")
  | _ -> Alcotest.fail "missing rows");
  let gp = In_channel.with_open_text (prefix ^ ".gp") In_channel.input_all in
  Alcotest.(check bool) "script references data" true
    (contains gp (prefix ^ ".dat"));
  Sys.remove (prefix ^ ".dat");
  Sys.remove (prefix ^ ".gp");
  Sys.remove prefix

let test_fig9_files () =
  let results =
    [
      { Workload.Worstcase.bytes = 16; blocks = 10; alloc_cycles = 1;
        free_cycles = 1; allocs_per_sec = 3.; frees_per_sec = 2.;
        pairs_per_sec = 1. };
    ]
  in
  let prefix = Filename.temp_file "fig9" "" in
  Experiments.Plot.write_fig9 results ~prefix;
  let dat = In_channel.with_open_text (prefix ^ ".dat") In_channel.input_all in
  Alcotest.(check bool) "row present" true (contains dat "16\t3\t2\t1");
  Sys.remove (prefix ^ ".dat");
  Sys.remove (prefix ^ ".gp");
  Sys.remove prefix

let suite =
  [
    Alcotest.test_case "fig7/fig8 gnuplot files" `Quick test_fig7_files;
    Alcotest.test_case "fig9 gnuplot files" `Quick test_fig9_files;
  ]
