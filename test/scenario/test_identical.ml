(* The bit-identical proof: replaying a recorded trace on a fresh,
   identically configured machine reproduces the recorded run's cycle
   count exactly.  Gaps capture per-CPU think time, operations are
   deterministic, so nothing else is possible — this test is what keeps
   the record/replay contract honest. *)

let mk () = Sim.Machine.create (Workload.Rig.paper_config ~ncpus:1 ())

let recorded_program (w : Baseline.Allocator.t) =
  let live = Queue.create () in
  for i = 1 to 300 do
    Sim.Machine.work (5 + (i mod 7));
    let bytes = 32 lsl (i mod 3) in
    let addr = w.Baseline.Allocator.alloc ~bytes in
    if addr <> 0 then Queue.add (addr, bytes) live;
    if Queue.length live > 10 then begin
      Sim.Machine.work 3;
      let addr, bytes = Queue.pop live in
      w.Baseline.Allocator.free ~addr ~bytes
    end
  done;
  Queue.iter
    (fun (addr, bytes) ->
      Sim.Machine.work 2;
      w.Baseline.Allocator.free ~addr ~bytes)
    live

let test_bit_identical_cycles () =
  let m1 = mk () in
  let a1 = Baseline.Allocator.create Baseline.Allocator.Newkma m1 in
  let trace = ref [] in
  Sim.Machine.run m1
    [| (fun _ -> trace := Workload.Trace.record a1 recorded_program) |];
  let recorded_cycles = Sim.Machine.elapsed m1 in
  let trace = !trace in
  (match Workload.Trace.validate trace with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("recorded trace invalid: " ^ e));
  Alcotest.(check bool) "trace has think-time gaps" true
    (List.exists (fun e -> Workload.Trace.gap_of e > 0) trace);
  let m2 = mk () in
  let a2 = Baseline.Allocator.create Baseline.Allocator.Newkma m2 in
  let r = Workload.Trace.replay m2 trace a2 in
  Alcotest.(check int) "replay reproduces the recorded cycle count"
    recorded_cycles r.Workload.Trace.cycles;
  Alcotest.(check int) "no failures" 0 r.Workload.Trace.failures;
  Alcotest.(check int) "no skipped frees" 0 r.Workload.Trace.skipped_frees

let suite =
  [
    Alcotest.test_case "replay reproduces recorded cycles" `Quick
      test_bit_identical_cycles;
  ]
