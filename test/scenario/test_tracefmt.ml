(* Trace scaling transforms and the skipped-frees accounting of
   replay. *)

let test_scale_rate () =
  let t =
    [
      Workload.Trace.Alloc { cpu = 0; gap = 100; id = 0; bytes = 64 };
      Workload.Trace.Free { cpu = 0; gap = 7; id = 0 };
    ]
  in
  (match Workload.Trace.scale_rate ~factor:10. t with
  | [ Workload.Trace.Alloc { gap = 10; _ }; Workload.Trace.Free { gap = 0; _ } ]
    ->
      ()
  | _ -> Alcotest.fail "gaps not divided by 10");
  match Workload.Trace.scale_rate ~factor:0. t with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "factor 0 accepted"

let test_fan_out () =
  let t = Workload.Trace.synthesize ~ops:120 ~ncpus:2 ~seed:4 () in
  Alcotest.(check bool) "copies=1 is identity" true
    (Workload.Trace.fan_out ~copies:1 t == t);
  let f = Workload.Trace.fan_out ~copies:3 t in
  Alcotest.(check int) "3x the events" (3 * List.length t) (List.length f);
  Alcotest.(check int) "3x the CPUs" (3 * Workload.Trace.ncpus t)
    (Workload.Trace.ncpus f);
  (match Workload.Trace.validate f with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("fanned trace invalid: " ^ e));
  (* id remapping is deterministic and collision-free *)
  let ids = List.map Workload.Trace.id_of (List.filter (function Workload.Trace.Alloc _ -> true | _ -> false) f) in
  let distinct = List.sort_uniq compare ids in
  Alcotest.(check int) "no id collisions" (List.length ids)
    (List.length distinct)

let test_skew_frees () =
  let t = Workload.Trace.synthesize ~ops:200 ~ncpus:2 ~seed:8 () in
  let all_moved = Workload.Trace.skew_frees ~seed:1 ~fraction:1. t in
  List.iter2
    (fun e e' ->
      match (e, e') with
      | Workload.Trace.Alloc _, _ ->
          Alcotest.(check bool) "allocs untouched" true (e = e')
      | ( Workload.Trace.Free { cpu; _ },
          Workload.Trace.Free { cpu = cpu'; _ } ) ->
          Alcotest.(check bool) "every free moved CPUs" true (cpu <> cpu')
      | _ -> Alcotest.fail "event kind changed")
    t all_moved;
  (match Workload.Trace.validate all_moved with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("skewed trace invalid: " ^ e));
  Alcotest.(check bool) "deterministic by seed" true
    (Workload.Trace.skew_frees ~seed:5 ~fraction:0.5 t
    = Workload.Trace.skew_frees ~seed:5 ~fraction:0.5 t);
  let one_cpu = Workload.Trace.synthesize ~ops:100 ~seed:2 () in
  Alcotest.(check bool) "single-CPU trace unchanged" true
    (Workload.Trace.skew_frees ~fraction:1. one_cpu = one_cpu)

(* Satellite: a free whose allocation never happened (or failed) is
   counted as a skipped free, never replayed and never spun on. *)
let test_skipped_frees_counted () =
  let t =
    [
      Workload.Trace.Alloc { cpu = 0; gap = 0; id = 0; bytes = 64 };
      Workload.Trace.Free { cpu = 0; gap = 0; id = 0 };
      Workload.Trace.Free { cpu = 0; gap = 0; id = 7 };
      Workload.Trace.Free { cpu = 0; gap = 0; id = 8 };
    ]
  in
  let m = Sim.Machine.create (Workload.Rig.paper_config ~ncpus:1 ()) in
  let a = Baseline.Allocator.create Baseline.Allocator.Newkma m in
  let r = Workload.Trace.replay m t a in
  Alcotest.(check int) "two skipped frees" 2 r.Workload.Trace.skipped_frees;
  Alcotest.(check int) "all events counted as ops" 4 r.Workload.Trace.ops;
  Alcotest.(check int) "no alloc failures" 0 r.Workload.Trace.failures

let suite =
  [
    Alcotest.test_case "scale_rate divides gaps" `Quick test_scale_rate;
    Alcotest.test_case "fan_out remaps ids deterministically" `Quick
      test_fan_out;
    Alcotest.test_case "skew_frees moves only frees" `Quick test_skew_frees;
    Alcotest.test_case "skipped frees are counted" `Quick
      test_skipped_frees_counted;
  ]
