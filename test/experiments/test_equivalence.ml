(* The tentpole's bit-identicality contract at experiment scale, the
   PR-5 way: run fig7 and E8 (pressure) slices under the default
   geometry with the same-CPU fast path disabled (every operation
   through the scheduler — the pre-fast-path execution mode) and
   enabled, and require the results to match byte for byte.  Every
   reported number is a pure function of integer cycle counts, so
   structural equality of the records IS cycle-count equality.

   The pinned constants below are the default-geometry regression
   anchor: if any simulator or allocator change moves them, the
   recorded results in EXPERIMENTS.md and BENCH_host.json no longer
   describe the code.  Deliberate cost-model changes must update the
   pins (and the recorded results) explicitly. *)

let both f =
  Sim.Machine.set_fast_path false;
  let slow =
    Fun.protect ~finally:(fun () -> Sim.Machine.set_fast_path true) f
  in
  let fast = f () in
  (slow, fast)

let test_fig7_slice_identical () =
  let slice () =
    Experiments.Fig7.run ~cpus:[ 1; 2; 4 ] ~iters:120 ()
  in
  let slow, fast = both slice in
  Alcotest.(check int) "same cardinality" (List.length slow) (List.length fast);
  List.iter2
    (fun (s : Experiments.Fig7.point) (f : Experiments.Fig7.point) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s@%d identical"
           (Baseline.Allocator.name_of s.Experiments.Fig7.which)
           s.Experiments.Fig7.ncpus)
        true (s = f))
    slow fast

let test_pressure_slice_identical () =
  let slice () =
    Experiments.Pressure.run ~ncpus:2 ~rounds:4 ~batch:30
      ~rates:[ 0.0; 0.2 ] ()
  in
  let slow, fast = both slice in
  Alcotest.(check bool) "E8 slice identical" true (slow = fast)

(* Default-geometry cycle pins for the fig7 best-case cells (300 timed
   pairs of 256-byte blocks).  These are exact virtual-cycle counts,
   not tolerances. *)
let pins =
  Baseline.Allocator.
    [
      (Cookie, 1, 17_400);
      (Newkma, 4, 29_700);
      (Mk, 2, 283_301);
      (Oldkma, 2, 879_620);
    ]

let cell which ncpus =
  (Workload.Bestcase.run ~which ~ncpus ~iters:300 ~bytes:256 ())
    .Workload.Bestcase.cycles

let test_fig7_default_geometry_pins () =
  List.iter
    (fun (which, ncpus, cycles) ->
      Alcotest.(check int)
        (Printf.sprintf "%s@%d" (Baseline.Allocator.name_of which) ncpus)
        cycles (cell which ncpus))
    pins

(* The same cells with the fast path off — the pre-fast-path simulator
   must still hit the very same pins. *)
let test_fig7_pins_slow_path () =
  Sim.Machine.set_fast_path false;
  Fun.protect
    ~finally:(fun () -> Sim.Machine.set_fast_path true)
    (fun () ->
      List.iter
        (fun (which, ncpus, cycles) ->
          Alcotest.(check int)
            (Printf.sprintf "%s@%d (scheduled)"
               (Baseline.Allocator.name_of which)
               ncpus)
            cycles (cell which ncpus))
        pins)

(* E13 cycle pins: the lock-free arms' best-case cells at the default
   flat geometry, fast and scheduled.  The bwfixed value reflects the
   ISSUE-9 exhaustion fix (private count words commit by tagged CAS, so
   every pop/push pays the rmw surcharge); nbbuddy is untouched. *)
let e13_pins =
  Baseline.Allocator.[ (Nbbuddy, 2, 54_300); (Bwfixed, 2, 21_000) ]

let test_e13_default_geometry_pins () =
  List.iter
    (fun (which, ncpus, cycles) ->
      Alcotest.(check int)
        (Printf.sprintf "%s@%d" (Baseline.Allocator.name_of which) ncpus)
        cycles (cell which ncpus))
    e13_pins

let test_e13_pins_slow_path () =
  Sim.Machine.set_fast_path false;
  Fun.protect
    ~finally:(fun () -> Sim.Machine.set_fast_path true)
    (fun () ->
      List.iter
        (fun (which, ncpus, cycles) ->
          Alcotest.(check int)
            (Printf.sprintf "%s@%d (scheduled)"
               (Baseline.Allocator.name_of which)
               ncpus)
            cycles (cell which ncpus))
        e13_pins)

(* E8 pin: one pressure cell's throughput at the default geometry.
   [pairs_per_sec] is a pure function of the cell's integer cycle
   count, so exact float equality IS a cycle pin. *)
let e8_pin = 327841.98016556021

let e8_cell () =
  let r = Experiments.Pressure.run ~ncpus:2 ~rounds:4 ~batch:30 ~rates:[ 0.0 ] () in
  let s =
    List.find (fun s -> s.Experiments.Pressure.name = "newkma")
      r.Experiments.Pressure.series
  in
  (List.hd s.Experiments.Pressure.rows).Experiments.Pressure.pairs_per_sec

let test_e8_default_geometry_pin () =
  let check_exact () =
    Alcotest.(check (float 0.)) "newkma@rate0 pairs/s" e8_pin (e8_cell ())
  in
  check_exact ();
  Sim.Machine.set_fast_path false;
  Fun.protect ~finally:(fun () -> Sim.Machine.set_fast_path true) check_exact

(* E8 pin under denials: at a 20 % denial rate the pressure policy
   shrinks, regrows, reaps and retries, so these rows pin its constants
   (shrink shift, floors, grow step and clocks, retry bound) as well as
   the cycles.  Fields: pairs/s, failures, pages held, reclaims, reaps,
   reap pages, retries, shrinks, grows. *)
let e8_denial_pins =
  [
    ("cookie", (505367.42317362322, [ 0; 26; 34; 2; 0; 2; 16; 78 ]));
    ("newkma", (373091.40428495477, [ 0; 21; 60; 2; 0; 2; 16; 78 ]));
  ]

let test_e8_denial_pins () =
  let check_exact () =
    let r =
      Experiments.Pressure.run ~ncpus:2 ~rounds:10 ~batch:120 ~rates:[ 0.2 ] ()
    in
    List.iter
      (fun (name, (pps, counts)) ->
        let s =
          List.find
            (fun s -> s.Experiments.Pressure.name = name)
            r.Experiments.Pressure.series
        in
        let row = List.hd s.Experiments.Pressure.rows in
        Alcotest.(check (float 0.)) (name ^ "@20% pairs/s") pps
          row.Experiments.Pressure.pairs_per_sec;
        Alcotest.(check (list int))
          (name ^ "@20% counters")
          counts
          Experiments.Pressure.
            [
              row.failures;
              row.pages_held;
              row.reclaims;
              row.reaps;
              row.reap_pages;
              row.retries;
              row.shrinks;
              row.grows;
            ])
      e8_denial_pins
  in
  check_exact ();
  Sim.Machine.set_fast_path false;
  Fun.protect ~finally:(fun () -> Sim.Machine.set_fast_path true) check_exact

(* Parked handoffs at trace scale: a cross-CPU free parks until the
   allocating CPU publishes, where the scheduled path polls.  Replay
   producer→consumer traces both ways, whole and in windows, and
   require the same result, the same per-call latency sequence, and the
   same cache and allocator counters. *)

(* Allocations of this size are denied without reaching the allocator,
   so a consumer parked on one is woken by the denial. *)
let denied_bytes = 3000

let replay_signature ?window trace =
  let ncpus = Workload.Trace.ncpus trace in
  let memory_words = 1 lsl 19 in
  let m =
    Sim.Machine.create (Workload.Rig.paper_config ~memory_words ~ncpus ())
  in
  let kmem =
    Kma.Kmem.create m ~params:(Kma.Params.auto ~memory_words) ()
  in
  let a : Baseline.Allocator.t =
    {
      name = "newkma";
      alloc =
        (fun ~bytes ->
          if bytes = denied_bytes then 0
          else
            match Kma.Kmem.try_alloc kmem ~bytes with Some a -> a | None -> 0);
      free = (fun ~addr ~bytes -> Kma.Kmem.free kmem ~addr ~bytes);
    }
  in
  let calls = ref [] in
  let on_op ~cpu ~alloc ~latency = calls := (cpu, alloc, latency) :: !calls in
  let r =
    match window with
    | None -> Workload.Trace.replay ~on_op m trace a
    | Some n ->
        let s = Workload.Trace.start m a trace in
        while Workload.Trace.step ~on_op s n do
          ()
        done;
        Workload.Trace.finish s
  in
  ( r,
    List.rev !calls,
    Sim.Cache.total_stats (Sim.Machine.cache m),
    Kma.Kmem.stats kmem )

let check_parked_replay name trace =
  List.iter
    (fun window ->
      let label =
        match window with
        | None -> name ^ " whole"
        | Some n -> Printf.sprintf "%s in windows of %d" name n
      in
      let slow, fast = both (fun () -> replay_signature ?window trace) in
      let (r, calls, cache, kstats) = fast in
      let (r', calls', cache', kstats') = slow in
      Alcotest.(check bool) (label ^ ": result") true (r = r');
      Alcotest.(check bool) (label ^ ": latencies") true (calls = calls');
      Alcotest.(check bool) (label ^ ": cache stats") true (cache = cache');
      Alcotest.(check bool) (label ^ ": kstats") true (kstats = kstats');
      Alcotest.(check bool) (label ^ ": every op ran") true
        (r.Workload.Trace.ops = List.length trace))
    [ None; Some 97 ]

let test_producer_consumer_parked () =
  let sc = Option.get (Scenario.find "producer_consumer") in
  check_parked_replay "producer_consumer"
    (sc.Scenario.generate ~seed:sc.default_seed)

(* Twelve copies of a producer→consumer pair on 24 CPUs, with seeded
   think time on both sides (so the consumer sometimes waits and
   sometimes finds the block published).  Every 25th allocation is
   denied after a long think, so the consumer is parked on it when the
   denial publishes. *)
let test_fan_out_parked () =
  let rng = Workload.Prng.create ~seed:17 in
  let pair =
    List.concat
      (List.init 150 (fun id ->
           let gap () = Workload.Prng.int rng ~bound:40 in
           let alloc =
             if id mod 25 = 7 then
               Workload.Trace.Alloc
                 { cpu = 0; gap = 2000; id; bytes = denied_bytes }
             else
               Workload.Trace.Alloc
                 {
                   cpu = 0;
                   gap = gap ();
                   id;
                   bytes = Workload.Prng.pick rng [| 64; 256; 1024 |];
                 }
           in
           [ alloc; Workload.Trace.Free { cpu = 1; gap = gap (); id } ]))
  in
  let trace = Workload.Trace.fan_out ~copies:12 pair in
  Alcotest.(check int) "24 CPUs" 24 (Workload.Trace.ncpus trace);
  let r, _, _, _ = replay_signature trace in
  Alcotest.(check int) "denials skip their frees" r.Workload.Trace.failures
    r.Workload.Trace.skipped_frees;
  Alcotest.(check bool) "some denials" true (r.Workload.Trace.failures > 0);
  check_parked_replay "fan_out" trace

let suite =
  [
    Alcotest.test_case "fig7 slice: fast = slow" `Quick
      test_fig7_slice_identical;
    Alcotest.test_case "E8 slice: fast = slow" `Quick
      test_pressure_slice_identical;
    Alcotest.test_case "fig7 default-geometry cycle pins" `Quick
      test_fig7_default_geometry_pins;
    Alcotest.test_case "fig7 pins on the scheduled path" `Quick
      test_fig7_pins_slow_path;
    Alcotest.test_case "E13 default-geometry cycle pins" `Quick
      test_e13_default_geometry_pins;
    Alcotest.test_case "E13 pins on the scheduled path" `Quick
      test_e13_pins_slow_path;
    Alcotest.test_case "E8 default-geometry pin" `Quick
      test_e8_default_geometry_pin;
    Alcotest.test_case "E8 pins under 20% denials, fast and scheduled" `Quick
      test_e8_denial_pins;
    Alcotest.test_case "parked replay: producer_consumer fast = slow" `Quick
      test_producer_consumer_parked;
    Alcotest.test_case "parked replay: 24-CPU fan_out fast = slow" `Quick
      test_fan_out_parked;
  ]
