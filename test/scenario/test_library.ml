(* The scenario library: well-formed, deterministic, replayable, and
   scalable past the recorded CPU count. *)

let replay_newkma t =
  let ncpus = max 1 (Workload.Trace.ncpus t) in
  let m = Sim.Machine.create (Workload.Rig.paper_config ~ncpus ()) in
  let a = Baseline.Allocator.create Baseline.Allocator.Newkma m in
  Workload.Trace.replay m t a

let test_names_unique () =
  let names = Scenario.names () in
  Alcotest.(check int) "no duplicate names" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_generators_valid_and_deterministic () =
  List.iter
    (fun (s : Scenario.t) ->
      let seed = s.Scenario.default_seed in
      let t = s.Scenario.generate ~seed in
      (match Workload.Trace.validate t with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: invalid trace: %s" s.Scenario.name e);
      Alcotest.(check int)
        (s.Scenario.name ^ ": declared CPU count")
        s.Scenario.ncpus (Workload.Trace.ncpus t);
      Alcotest.(check bool)
        (s.Scenario.name ^ ": deterministic by seed")
        true
        (t = s.Scenario.generate ~seed);
      Alcotest.(check bool)
        (s.Scenario.name ^ ": non-empty")
        true (t <> []))
    Scenario.all

let test_all_replay_cleanly () =
  List.iter
    (fun (s : Scenario.t) ->
      let t = s.Scenario.generate ~seed:s.Scenario.default_seed in
      let r = replay_newkma t in
      Alcotest.(check int)
        (s.Scenario.name ^ ": no failures")
        0 r.Workload.Trace.failures;
      Alcotest.(check int)
        (s.Scenario.name ^ ": no skipped frees")
        0 r.Workload.Trace.skipped_frees;
      Alcotest.(check int)
        (s.Scenario.name ^ ": every event replayed")
        (List.length t) r.Workload.Trace.ops)
    Scenario.all

let test_replay_deterministic () =
  let s = List.find (fun (s : Scenario.t) -> s.name = "rpc") Scenario.all in
  let t = s.Scenario.generate ~seed:s.Scenario.default_seed in
  Alcotest.(check int) "cycle-exact reruns"
    (replay_newkma t).Workload.Trace.cycles
    (replay_newkma t).Workload.Trace.cycles

(* Acceptance: a 10x-scaled replay across more CPUs than the recording
   runs and completes. *)
let test_scaled_fan_out_replay () =
  let s =
    List.find (fun (s : Scenario.t) -> s.name = "recorded_dlm") Scenario.all
  in
  let t = s.Scenario.generate ~seed:s.Scenario.default_seed in
  let base = Workload.Trace.ncpus t in
  let scaled =
    Workload.Trace.fan_out ~copies:3
      (Workload.Trace.scale_rate ~factor:10. t)
  in
  Alcotest.(check int) "more CPUs than the recording" (3 * base)
    (Workload.Trace.ncpus scaled);
  (match Workload.Trace.validate scaled with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("scaled trace invalid: " ^ e));
  let r = replay_newkma scaled in
  Alcotest.(check int) "completes every event" (List.length scaled)
    r.Workload.Trace.ops;
  Alcotest.(check int) "no skipped frees" 0 r.Workload.Trace.skipped_frees

let suite =
  [
    Alcotest.test_case "names unique" `Quick test_names_unique;
    Alcotest.test_case "generators valid and deterministic" `Quick
      test_generators_valid_and_deterministic;
    Alcotest.test_case "every scenario replays cleanly" `Quick
      test_all_replay_cleanly;
    Alcotest.test_case "replay is cycle-deterministic" `Quick
      test_replay_deterministic;
    Alcotest.test_case "10x-scaled fan-out replay completes" `Quick
      test_scaled_fan_out_replay;
  ]
