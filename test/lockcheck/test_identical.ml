(* The checker's zero-perturbation contract, at experiment scale: E1
   (the Analysis access-cost profile) and E8 (the pressure sweep) must
   produce bit-identical results — every simulated cycle count, rate
   and counter — with the checker on or off.  Both experiments are
   deterministic, so plain structural equality of their result records
   is the strongest possible check.  Run in abort mode: a violation in
   the production allocator would fail the test loudly. *)

let with_checker_if enabled f =
  if not enabled then f ()
  else begin
    Lockcheck.enable ~abort:true ();
    Fun.protect ~finally:Lockcheck.disable f
  end

let analysis_run ~check =
  with_checker_if check (fun () -> Experiments.Analysis.run ~samples:60 ())

let test_e1_bit_identical () =
  let bare = analysis_run ~check:false in
  let checked = analysis_run ~check:true in
  Alcotest.(check bool) "E1 profiles identical with lockcheck on" true
    (bare = checked)

let pressure_run ~check =
  with_checker_if check (fun () ->
      Experiments.Pressure.run ~ncpus:2 ~rounds:6 ~batch:40
        ~rates:[ 0.0; 0.2 ] ~seed:42 ())

let test_e8_bit_identical () =
  let bare = pressure_run ~check:false in
  let checked = pressure_run ~check:true in
  Alcotest.(check bool) "E8 results identical with lockcheck on" true
    (bare = checked)

(* ... and the checker did actually watch those runs: re-run E8 in
   record mode and confirm the hooks fired. *)
let test_checker_saw_the_run () =
  Lockcheck.enable ~abort:true ();
  Fun.protect ~finally:Lockcheck.disable (fun () ->
      ignore
        (Experiments.Pressure.run ~ncpus:2 ~rounds:3 ~batch:20 ~rates:[ 0.0 ]
           ~seed:42 ());
      Alcotest.(check bool) "locks were tracked" true
        (Lockcheck.check_count_oracle Lockcheck.Lock_order > 0);
      Alcotest.(check bool) "per-CPU accesses were checked" true
        (Lockcheck.check_count_oracle Lockcheck.Irq_discipline > 0))

let suite =
  [
    Alcotest.test_case "E1 simulated results bit-identical" `Quick
      test_e1_bit_identical;
    Alcotest.test_case "E8 simulated results bit-identical" `Quick
      test_e8_bit_identical;
    Alcotest.test_case "hooks actually fired during E8" `Quick
      test_checker_saw_the_run;
  ]
