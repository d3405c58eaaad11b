(* The determinism proof for the lock-free arms: the same seeded
   multi-CPU storm on a fresh machine yields bit-identical cycle counts,
   retry statistics and allocation results every time — and the same
   again with the simulator's same-CPU fast path disabled, so none of
   the lock-free protocols' outcomes depend on the execution route. *)

let storm which ~seed =
  Test_hammer.run ~which ~ncpus:6 ~iters:250 ~seed ()

let check_same name (a : Test_hammer.outcome) (b : Test_hammer.outcome) =
  Alcotest.(check int) (name ^ ": cycles") a.elapsed b.elapsed;
  Alcotest.(check string) (name ^ ": stats") a.stats b.stats;
  Alcotest.(check int) (name ^ ": results") a.checksum b.checksum

let test_repeat which () =
  let name = Baseline.Allocator.name_of which in
  let o1 = storm which ~seed:11 in
  let o2 = storm which ~seed:11 in
  check_same name o1 o2;
  (* a different seed must actually change the run, or the proof above
     proves nothing *)
  let o3 = storm which ~seed:12 in
  Alcotest.(check bool) (name ^ ": seed matters") true (o3.checksum <> o1.checksum)

let test_fastpath_equivalence which () =
  let name = Baseline.Allocator.name_of which in
  let fast = storm which ~seed:21 in
  Sim.Machine.set_fast_path_oracle false;
  let slow =
    Fun.protect
      ~finally:(fun () -> Sim.Machine.set_fast_path_oracle true)
      (fun () -> storm which ~seed:21)
  in
  check_same (name ^ " fast=scheduled") fast slow

let suite =
  [
    Alcotest.test_case "nbbuddy repeat" `Quick
      (test_repeat Baseline.Allocator.Nbbuddy);
    Alcotest.test_case "bwfixed repeat" `Quick
      (test_repeat Baseline.Allocator.Bwfixed);
    Alcotest.test_case "nbbuddy fast=scheduled" `Quick
      (test_fastpath_equivalence Baseline.Allocator.Nbbuddy);
    Alcotest.test_case "bwfixed fast=scheduled" `Quick
      (test_fastpath_equivalence Baseline.Allocator.Bwfixed);
  ]
