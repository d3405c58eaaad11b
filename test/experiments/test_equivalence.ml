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
  Sim.Machine.set_fast_path_oracle false;
  let slow =
    Fun.protect ~finally:(fun () -> Sim.Machine.set_fast_path_oracle true) f
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
      (Mk, 2, 223_842);
      (Oldkma, 2, 821_830);
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
  Sim.Machine.set_fast_path_oracle false;
  Fun.protect
    ~finally:(fun () -> Sim.Machine.set_fast_path_oracle true)
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
  Sim.Machine.set_fast_path_oracle false;
  Fun.protect
    ~finally:(fun () -> Sim.Machine.set_fast_path_oracle true)
    (fun () ->
      List.iter
        (fun (which, ncpus, cycles) ->
          Alcotest.(check int)
            (Printf.sprintf "%s@%d (scheduled)"
               (Baseline.Allocator.name_of which)
               ncpus)
            cycles (cell which ncpus))
        e13_pins)

(* Slice pins for the sweeps that run the Figure 7 cell at other
   shapes: E12 (bursts written word by word, under two geometries), E14
   (touched bursts at 8 CPUs, flat and 2-node) and E13 as kma_bench
   runs it (the best-case sweep with its retry counters, and the
   remote-free sweep).  Every float is a pure function of integer
   cycle and access counts, so exact equality is a cycle pin; each
   slice must hit its pins on the fast path and on the scheduled path. *)
let fast_and_scheduled check =
  check ();
  Sim.Machine.set_fast_path_oracle false;
  Fun.protect ~finally:(fun () -> Sim.Machine.set_fast_path_oracle true) check

let exact = Alcotest.(check (float 0.))
let counters = Option.fold ~none:"-" ~some:Lockfree.Stats.to_string

(* (arm, line words, ways): cycles/pair, miss %, c2c %, pairs/s. *)
let e12_pins =
  Baseline.Allocator.
    [
      ( (Newkma, 4, 0),
        (426.60416666666669, 10.641127959563713, 0.24607608406491088,
         234409.33730526932) );
      ( (Newkma, 8, 1),
        (265.42708333333331, 3.0790716233291215, 1.1637959699408127,
         376751.30489384243) );
      ( (Cookie, 4, 0),
        (385., 10.879060879060878, 0.25252525252525254, 259740.25974025976)
      );
      ( (Cookie, 8, 1),
        (222.16666666666666, 3.0503616759929031, 1.1942131841135526,
         450112.52813203301) );
    ]

let test_e12_slice_pins () =
  fast_and_scheduled (fun () ->
      let rows =
        Experiments.Geomsweep.run ~points:[ (4, 0); (8, 1) ] ~ncpus:2
          ~iters:4 ~depth:24 ()
      in
      Alcotest.(check int) "cells" (List.length e12_pins) (List.length rows);
      List.iter2
        (fun ((which, line, ways), (cyc, miss, c2c, pps))
             (r : Experiments.Geomsweep.row) ->
          let label =
            Printf.sprintf "%s line=%d ways=%d"
              (Baseline.Allocator.name_of which)
              line ways
          in
          Alcotest.(check bool)
            (label ^ " cell") true
            (r.which = which && r.line_words = line && r.ways = ways);
          exact (label ^ " cyc/pair") cyc r.cycles_per_pair;
          exact (label ^ " miss%") miss r.miss_pct;
          exact (label ^ " c2c%") c2c r.c2c_pct;
          exact (label ^ " pairs/s") pps r.pairs_per_sec)
        e12_pins rows)

(* (arm, nodes) at 8 CPUs: cycles/pair, remote %, c2c %, pairs/s. *)
let e14_pins =
  Baseline.Allocator.
    [
      ( (Newkma, 1),
        (177.27777777777777, 0., 4.6985815602836878, 2256345.9730492011) );
      ( (Newkma, 2),
        (327.61111111111109, 6.7391538378727525, 7.3420174399827749,
         1220959.8100729184) );
      ( (Numakma, 1),
        (177.27777777777777, 0., 4.6985815602836878, 2256345.9730492011) );
      ( (Numakma, 2),
        (173.40277777777777, 1.4515584561719366, 2.8243501744120625,
         2306768.1217460954) );
    ]

let test_e14_slice_pins () =
  fast_and_scheduled (fun () ->
      let rows =
        Experiments.Numa.run ~cpus:[ 8 ] ~nodes:[ 1; 2 ] ~iters:3 ~depth:24 ()
      in
      Alcotest.(check int) "cells" (List.length e14_pins) (List.length rows);
      List.iter2
        (fun ((which, nodes), (cyc, remote, c2c, pps))
             (r : Experiments.Numa.row) ->
          let label =
            Printf.sprintf "%s nodes=%d" (Baseline.Allocator.name_of which)
              nodes
          in
          Alcotest.(check bool)
            (label ^ " cell") true
            (r.which = which && r.ncpus = 8 && r.nodes = nodes);
          exact (label ^ " cyc/pair") cyc r.cycles_per_pair;
          exact (label ^ " remote%") remote r.remote_pct;
          exact (label ^ " c2c%") c2c r.c2c_pct;
          exact (label ^ " pairs/s") pps r.pairs_per_sec)
        e14_pins rows)

(* (arm, CPUs): pairs/s and the timed region's retry counters. *)
let e13_sweep_pins =
  let bw n =
    Printf.sprintf
      "cas=%d fail=0 mark=0 conflict=0 help=0 refill=0 flush=0 steal=0"
      (200 * n)
  and nb n =
    Printf.sprintf
      "cas=%d fail=0 mark=%d conflict=0 help=0 refill=0 flush=0 steal=0"
      (100 * n) (900 * n)
  in
  Baseline.Allocator.
    [
      ((Cookie, 1), (862068.96551724139, "-"));
      ((Cookie, 2), (1724137.9310344828, "-"));
      ((Cookie, 4), (3448275.8620689656, "-"));
      ((Newkma, 1), (505050.5050505051, "-"));
      ((Newkma, 2), (1010101.0101010102, "-"));
      ((Newkma, 4), (2020202.0202020204, "-"));
      ((Nbbuddy, 1), (276243.0939226519, nb 1));
      ((Nbbuddy, 2), (552486.18784530379, nb 2));
      ((Nbbuddy, 4), (1104972.3756906076, nb 4));
      ((Bwfixed, 1), (714285.71428571432, bw 1));
      ((Bwfixed, 2), (1428571.4285714286, bw 2));
      ((Bwfixed, 4), (2857142.8571428573, bw 4));
    ]

(* (arm, pairs): transfers/s and the remote-free retry counters. *)
let e13_remote_pins =
  Baseline.Allocator.
    [
      ((Cookie, 1), (193132.21831665956, "-"));
      ((Cookie, 2), (357474.7980267391, "-"));
      ((Newkma, 1), (178284.89926903191, "-"));
      ((Newkma, 2), (323498.96480331261, "-"));
      ( (Nbbuddy, 1),
        ( 153713.72356123955,
          "cas=100 fail=0 mark=688 conflict=0 help=0 refill=0 flush=0 steal=0"
        ) );
      ( (Nbbuddy, 2),
        ( 295464.61811198108,
          "cas=200 fail=0 mark=1376 conflict=0 help=0 refill=0 flush=0 \
           steal=0" ) );
      ( (Bwfixed, 1),
        ( 358166.18911174784,
          "cas=224 fail=0 mark=0 conflict=0 help=0 refill=13 flush=11 steal=0"
        ) );
      ( (Bwfixed, 2),
        ( 700280.11204481788,
          "cas=458 fail=10 mark=0 conflict=0 help=0 refill=26 flush=22 \
           steal=0" ) );
    ]

let test_e13_sweep_pins () =
  fast_and_scheduled (fun () ->
      let module L = Experiments.Lockfree_arms in
      let points =
        Experiments.Fig7.run ~whichs:L.default_whichs ~cpus:[ 1; 2; 4 ]
          ~iters:100 ()
      in
      Alcotest.(check int)
        "best-case cells"
        (List.length e13_sweep_pins)
        (List.length points);
      List.iter2
        (fun ((which, ncpus), (pps, stats)) (p : Experiments.Fig7.point) ->
          let label =
            Printf.sprintf "%s@%d" (Baseline.Allocator.name_of which) ncpus
          in
          Alcotest.(check bool)
            (label ^ " cell") true
            (p.which = which && p.ncpus = ncpus && p.ops = 100 * ncpus);
          exact (label ^ " pairs/s") pps p.ops_per_sec;
          Alcotest.(check string) (label ^ " counters") stats
            (counters p.stats))
        e13_sweep_pins points;
      let remote = L.run_crosscpu ~pairs:[ 1; 2 ] ~blocks_per_pair:100 () in
      Alcotest.(check int)
        "remote-free cells"
        (List.length e13_remote_pins)
        (List.length remote);
      List.iter2
        (fun ((which, pairs), (tps, stats)) (p : Experiments.Fig7.point) ->
          let label =
            Printf.sprintf "%s x%d" (Baseline.Allocator.name_of which) pairs
          in
          Alcotest.(check bool)
            (label ^ " cell") true
            (p.which = which && p.ncpus = pairs && p.ops = 100 * pairs);
          exact (label ^ " transfers/s") tps p.ops_per_sec;
          Alcotest.(check string) (label ^ " counters") stats
            (counters p.stats))
        e13_remote_pins remote)

(* E8 pin: one pressure cell's throughput at the default geometry.
   [pairs_per_sec] is a pure function of the cell's integer cycle
   count, so exact float equality IS a cycle pin. *)
let e8_pin = 331144.10287543462

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
  Sim.Machine.set_fast_path_oracle false;
  Fun.protect ~finally:(fun () -> Sim.Machine.set_fast_path_oracle true) check_exact

(* E8 pin under denials: at a 20 % denial rate the pressure policy
   shrinks, regrows, reaps and retries, so these rows pin its constants
   (shrink shift, floors, grow step and clocks, retry bound) as well as
   the cycles.  Fields: pairs/s, failures, pages held, reclaims, reaps,
   reap pages, retries, shrinks, grows. *)
let e8_denial_pins =
  [
    ("cookie", (562609.0054948146, [ 0; 28; 26; 2; 0; 2; 16; 78 ]));
    ("newkma", (390226.13604583853, [ 0; 21; 58; 2; 0; 2; 16; 78 ]));
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
  Sim.Machine.set_fast_path_oracle false;
  Fun.protect ~finally:(fun () -> Sim.Machine.set_fast_path_oracle true) check_exact

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
  let sc =
    List.find
      (fun (s : Scenario.t) -> s.name = "producer_consumer")
      Scenario.all
  in
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
    Alcotest.test_case "E12 slice pins, fast and scheduled" `Quick
      test_e12_slice_pins;
    Alcotest.test_case "E14 slice pins, fast and scheduled" `Quick
      test_e14_slice_pins;
    Alcotest.test_case "E13 sweep pins, fast and scheduled" `Quick
      test_e13_sweep_pins;
    Alcotest.test_case "E8 default-geometry pin" `Quick
      test_e8_default_geometry_pin;
    Alcotest.test_case "E8 pins under 20% denials, fast and scheduled" `Quick
      test_e8_denial_pins;
    Alcotest.test_case "parked replay: producer_consumer fast = slow" `Quick
      test_producer_consumer_parked;
    Alcotest.test_case "parked replay: 24-CPU fan_out fast = slow" `Quick
      test_fan_out_parked;
  ]
