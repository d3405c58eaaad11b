(* The checker's zero-perturbation contract, at experiment scale (the
   [test/lockcheck] pattern): checking is host-side and uncharged, so
   simulated results must be bit-identical however often the heap is
   checked — and with the checker on or off entirely. *)

module Fuzz = Heapcheck.Fuzz

(* Replay the config's own seeded trace. *)
let fuzz cfg = Fuzz.execute cfg (Fuzz.gen cfg)

let with_checker_if enabled f =
  if not enabled then f ()
  else begin
    Heapcheck.enable ~abort:true ();
    Fun.protect ~finally:Heapcheck.disable f
  end

(* Same trace, checked after every op vs. essentially never: the
   simulated cycle count (and the whole outcome modulo check counts)
   must not move. *)
let test_check_cadence_uncharged () =
  let run every =
    fuzz
      (Fuzz.config ~ops:2000 ~check_every:every ~pressure:true ~seed:17 ())
  in
  let paranoid = run 1 and sparse = run 1999 in
  Alcotest.(check int) "same simulated cycles" sparse.Fuzz.cycles
    paranoid.Fuzz.cycles;
  Alcotest.(check (pair int int))
    "same alloc/free history"
    (sparse.Fuzz.allocs, sparse.Fuzz.frees)
    (paranoid.Fuzz.allocs, paranoid.Fuzz.frees)

(* Enabling the lifecycle layer (note/report/flight-recorder hooks)
   must not move the cycle count either. *)
let test_enable_uncharged () =
  let cfg = Fuzz.config ~ops:1500 ~pressure:true ~seed:18 () in
  let bare = fuzz cfg in
  let hooked = with_checker_if true (fun () -> fuzz cfg) in
  Alcotest.(check int) "same simulated cycles with Heapcheck enabled"
    bare.Fuzz.cycles hooked.Fuzz.cycles

(* E6 (miss rates) and E8 (pressure sweep) carry [checkpoint] hooks at
   their quiescent points; both are deterministic, so equality of the
   result records is the strongest possible check.  E6 compares
   marshalled bytes rather than with [(=)]: zero-traffic classes yield
   NaN rates, and [nan <> nan] structurally. *)
let missrates_run ~check =
  with_checker_if check (fun () ->
      Experiments.Missrates.run ~ncpus:2 ~transactions_per_cpu:400 ())

let test_e6_bit_identical () =
  let bare = missrates_run ~check:false in
  let checked = missrates_run ~check:true in
  Alcotest.(check bool) "E6 results identical with heapcheck on" true
    (Marshal.to_string bare [] = Marshal.to_string checked [])

let pressure_run ~check =
  with_checker_if check (fun () ->
      Experiments.Pressure.run ~ncpus:2 ~rounds:6 ~batch:40
        ~rates:[ 0.0; 0.2 ] ~seed:42 ())

let test_e8_bit_identical () =
  let bare = pressure_run ~check:false in
  let checked = pressure_run ~check:true in
  Alcotest.(check bool) "E8 results identical with heapcheck on" true
    (bare = checked)

(* ... and the checkpoints actually ran (abort mode: a violation in the
   production allocator would have failed the runs above loudly). *)
let test_checkpoints_fired () =
  Heapcheck.enable ~abort:true ();
  Fun.protect ~finally:Heapcheck.disable (fun () ->
      ignore
        (Experiments.Pressure.run ~ncpus:2 ~rounds:3 ~batch:20 ~rates:[ 0.0 ]
           ~seed:42 ());
      Alcotest.(check bool) "checkpoints ran during E8" true
        (Heapcheck.check_count_oracle () > 0);
      Alcotest.(check int) "and found nothing" 0
        (Heapcheck.violation_count ()))

let suite =
  [
    Alcotest.test_case "check cadence does not move cycles" `Quick
      test_check_cadence_uncharged;
    Alcotest.test_case "enabling the checker does not move cycles" `Quick
      test_enable_uncharged;
    Alcotest.test_case "E6 simulated results bit-identical" `Quick
      test_e6_bit_identical;
    Alcotest.test_case "E8 simulated results bit-identical" `Quick
      test_e8_bit_identical;
    Alcotest.test_case "checkpoints actually fired during E8" `Quick
      test_checkpoints_fired;
  ]
