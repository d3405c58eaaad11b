(* Trace record / synthesise / replay. *)

let machine () =
  Sim.Machine.create
    (Sim.Config.make ~ncpus:1 ~memory_words:131072 ~cache_lines:0 ())

let on_cpu m f =
  let r = ref None in
  Sim.Machine.run m [| (fun _ -> r := Some (f ())) |];
  Option.get !r

let test_synthesize_valid () =
  let t = Workload.Trace.synthesize ~ops:500 () in
  (match Workload.Trace.validate t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "has frees beyond ops (drain)" true
    (List.length t >= 500)

let test_synthesize_deterministic () =
  let a = Workload.Trace.synthesize ~ops:200 ~seed:5 () in
  let b = Workload.Trace.synthesize ~ops:200 ~seed:5 () in
  let c = Workload.Trace.synthesize ~ops:200 ~seed:6 () in
  Alcotest.(check bool) "same seed" true (a = b);
  Alcotest.(check bool) "different seed" true (a <> c)

let test_synthesize_multicpu () =
  let t = Workload.Trace.synthesize ~ops:400 ~ncpus:4 ~mean_gap:6 () in
  (match Workload.Trace.validate t with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "uses several CPUs" true (Workload.Trace.ncpus t > 1);
  Alcotest.(check bool) "has nonzero gaps" true
    (List.exists (fun e -> Workload.Trace.gap_of e > 0) t)

let test_validate_catches () =
  let open Workload.Trace in
  (match validate [ Free { cpu = 0; gap = 0; id = 0 } ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "free of dead id accepted");
  (match validate [ Alloc { cpu = 0; gap = 0; id = 0; bytes = 16 } ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "leak accepted");
  match
    validate
      [
        Alloc { cpu = 0; gap = 0; id = 0; bytes = 16 };
        Alloc { cpu = 0; gap = 0; id = 0; bytes = 16 };
        Free { cpu = 0; gap = 0; id = 0 };
        Free { cpu = 0; gap = 0; id = 0 };
      ]
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "double id accepted"

let test_replay_all_allocators () =
  let t = Workload.Trace.synthesize ~ops:400 () in
  List.iter
    (fun which ->
      let m = machine () in
      let a = Baseline.Allocator.create which m in
      let r = Workload.Trace.replay m t a in
      Alcotest.(check int)
        (Baseline.Allocator.name_of which ^ ": no failures")
        0 r.Workload.Trace.failures;
      Alcotest.(check int)
        (Baseline.Allocator.name_of which ^ ": no skipped frees")
        0 r.Workload.Trace.skipped_frees;
      Alcotest.(check bool) "cycles advanced" true (r.Workload.Trace.cycles > 0))
    (Baseline.Allocator.all @ [ Baseline.Allocator.Lazybuddy ])

let test_record_then_replay () =
  (* Record a workload on one allocator, replay it on another: the
     recorded trace is well-formed and replays cleanly. *)
  let m = machine () in
  let a = Baseline.Allocator.create Baseline.Allocator.Cookie m in
  let trace =
    on_cpu m (fun () ->
        Workload.Trace.record a (fun wrapped ->
            let live = ref [] in
            for i = 1 to 200 do
              if i mod 3 = 0 then (
                match !live with
                | (addr, bytes) :: rest ->
                    live := rest;
                    wrapped.Baseline.Allocator.free ~addr ~bytes
                | [] -> ())
              else begin
                let bytes = 16 lsl (i mod 4) in
                let addr = wrapped.Baseline.Allocator.alloc ~bytes in
                live := (addr, bytes) :: !live
              end
            done;
            List.iter
              (fun (addr, bytes) ->
                wrapped.Baseline.Allocator.free ~addr ~bytes)
              !live))
  in
  (match Workload.Trace.validate trace with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("recorded trace invalid: " ^ e));
  let m2 = machine () in
  let oldkma = Baseline.Allocator.create Baseline.Allocator.Oldkma m2 in
  let r = Workload.Trace.replay m2 trace oldkma in
  Alcotest.(check int) "replays on oldkma" 0 r.Workload.Trace.failures

let test_replay_determinism () =
  let t = Workload.Trace.synthesize ~ops:300 () in
  let run () =
    let m = machine () in
    let a = Baseline.Allocator.create Baseline.Allocator.Newkma m in
    (Workload.Trace.replay m t a).Workload.Trace.cycles
  in
  Alcotest.(check int) "cycle-exact reruns" (run ()) (run ())

(* Handoffs that form a cycle — each CPU frees, first, a block the
   other allocates only after its own free — make a malformed trace:
   [validate] rejects it, and replaying it ends in [Deadlock] naming
   both parked CPUs rather than spinning forever.  The machine stays
   usable afterwards. *)
let test_cyclic_handoff_deadlocks () =
  let open Workload.Trace in
  let t =
    [
      Free { cpu = 0; gap = 0; id = 1 };
      Alloc { cpu = 0; gap = 0; id = 0; bytes = 64 };
      Free { cpu = 1; gap = 0; id = 0 };
      Alloc { cpu = 1; gap = 0; id = 1; bytes = 64 };
    ]
  in
  (match validate t with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "cyclic trace accepted");
  let m =
    Sim.Machine.create
      (Sim.Config.make ~ncpus:2 ~memory_words:131072 ~cache_lines:0 ())
  in
  let a = Baseline.Allocator.create Baseline.Allocator.Newkma m in
  (match replay m t a with
  | _ -> Alcotest.fail "expected Deadlock"
  | exception Sim.Machine.Deadlock msg ->
      Alcotest.(check string) "names CPUs 0 and 1"
        "Sim.Machine.run: parked CPUs [0; 1] have nobody left to wake them" msg);
  let r = replay m (synthesize ~ops:200 ~ncpus:2 ()) a in
  Alcotest.(check int) "a valid trace replays afterwards" 0 r.failures

let suite =
  [
    Alcotest.test_case "synthesized traces are valid" `Quick
      test_synthesize_valid;
    Alcotest.test_case "synthesis deterministic by seed" `Quick
      test_synthesize_deterministic;
    Alcotest.test_case "multi-CPU synthesis with gaps" `Quick
      test_synthesize_multicpu;
    Alcotest.test_case "validate catches malformed traces" `Quick
      test_validate_catches;
    Alcotest.test_case "replays on every allocator" `Quick
      test_replay_all_allocators;
    Alcotest.test_case "record then replay elsewhere" `Quick
      test_record_then_replay;
    Alcotest.test_case "replay is cycle-deterministic" `Quick
      test_replay_determinism;
    Alcotest.test_case "cyclic handoff raises Deadlock" `Quick
      test_cyclic_handoff_deadlocks;
  ]
