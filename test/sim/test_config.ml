let expect_invalid f =
  match f () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_default_validates () = Sim.Config.validate (Sim.Config.make ())

let test_make_overrides () =
  let c =
    Sim.Config.make ~ncpus:8
      ~geometry:{ Sim.Geometry.default with miss_cost = 99 }
      ()
  in
  Alcotest.(check int) "ncpus" 8 c.Sim.Config.ncpus;
  Alcotest.(check int) "miss" 99 c.Sim.Config.geometry.miss_cost;
  Alcotest.(check int)
    "others keep defaults" (Sim.Config.make ()).Sim.Config.memory_words
    c.Sim.Config.memory_words;
  Alcotest.(check int)
    "other costs keep defaults" Sim.Geometry.default.c2c_cost
    c.Sim.Config.geometry.c2c_cost

let test_bad_ncpus () = expect_invalid (fun () -> Sim.Config.make ~ncpus:0 ())

let test_bad_line_words () =
  expect_invalid (fun () ->
      Sim.Config.make ~geometry:{ Sim.Geometry.default with line_words = 3 } ())

let test_bad_memory_alignment () =
  expect_invalid (fun () ->
      Sim.Config.make ~memory_words:1001 ())

let test_negative_cost () =
  expect_invalid (fun () ->
      Sim.Config.make ~geometry:{ Sim.Geometry.default with miss_cost = -1 } ())

let test_seconds_of_cycles () =
  Alcotest.(check (float 1e-12))
    "1M cycles at 50MHz" 0.02
    (Sim.Config.seconds_of_cycles (Sim.Config.make ()) 1_000_000)

let suite =
  [
    Alcotest.test_case "default validates" `Quick test_default_validates;
    Alcotest.test_case "make overrides fields" `Quick test_make_overrides;
    Alcotest.test_case "rejects ncpus=0" `Quick test_bad_ncpus;
    Alcotest.test_case "rejects non-power-of-two line" `Quick
      test_bad_line_words;
    Alcotest.test_case "rejects unaligned memory size" `Quick
      test_bad_memory_alignment;
    Alcotest.test_case "rejects negative cost" `Quick test_negative_cost;
    Alcotest.test_case "cycles to seconds" `Quick test_seconds_of_cycles;
  ]
