open Sim

let machine ?(ncpus = 4) ?(cache_lines = 0) () =
  Machine.create
    (Config.make ~ncpus
       ~geometry:{ Geometry.default with cache_lines }
       ~memory_words:65536 ())

let test_read_write_roundtrip () =
  let m = machine () in
  let result = ref 0 in
  Machine.run m
    [|
      (fun _ ->
        Machine.write 100 42;
        result := Machine.read 100);
    |];
  Alcotest.(check int) "read back" 42 !result;
  Alcotest.(check int) "visible in memory" 42 (Memory.get (Machine.memory m) 100)

let test_work_charges_time () =
  let m = machine () in
  Machine.run m [| (fun _ -> Machine.work 1000) |];
  Alcotest.(check int) "time charged" 1000 (Machine.cpu_time m ~cpu:0);
  Alcotest.(check int) "retired" 1000 (Machine.retired m ~cpu:0)

let test_cpu_id_and_now () =
  let m = machine () in
  let ids = Array.make 3 (-1) in
  let times = Array.make 3 (-1) in
  Machine.run m
    (Array.init 3 (fun _ _cpu ->
         let id = Machine.cpu_id () in
         Machine.work (10 * (id + 1));
         ids.(id) <- id;
         times.(id) <- Machine.now ()));
  Alcotest.(check (array int)) "ids" [| 0; 1; 2 |] ids;
  Alcotest.(check (array int)) "now reflects work" [| 10; 20; 30 |] times

let test_determinism () =
  let trace_of () =
    let m = machine ~ncpus:3 () in
    let log = ref [] in
    Machine.run_symmetric m ~ncpus:3 (fun cpu ->
        for i = 1 to 20 do
          let v = Machine.fetch_add 8 1 in
          Machine.work ((cpu + i) mod 5);
          log := (cpu, v) :: !log
        done);
    (!log, Machine.elapsed m)
  in
  let t1 = trace_of () and t2 = trace_of () in
  Alcotest.(check bool) "identical traces" true (t1 = t2)

let test_fetch_add_atomic () =
  let m = machine ~ncpus:4 () in
  Machine.run_symmetric m ~ncpus:4 (fun _ ->
      for _ = 1 to 500 do
        ignore (Machine.fetch_add 16 1)
      done);
  Alcotest.(check int) "no lost updates" 2000 (Memory.get (Machine.memory m) 16)

let test_bitwise_rmw_semantics () =
  let m = machine ~ncpus:1 () in
  Memory.set (Machine.memory m) 16 0b1100;
  let log = ref [] in
  Machine.run m
    [|
      (fun _ ->
        log := ("or", Machine.fetch_or 16 0b0110) :: !log;
        log := ("and", Machine.fetch_and 16 0b0011) :: !log;
        log := ("casv hit", Machine.cas_val 16 ~expected:0b0010 ~desired:42) :: !log;
        log := ("casv miss", Machine.cas_val 16 ~expected:7 ~desired:99) :: !log);
    |];
  Alcotest.(check (list (pair string int)))
    "old values witnessed"
    [ ("or", 0b1100); ("and", 0b1110); ("casv hit", 0b0010); ("casv miss", 42) ]
    (List.rev !log);
  Alcotest.(check int) "final value" 42 (Memory.get (Machine.memory m) 16)

let test_bitwise_rmw_atomic () =
  (* concurrent single-bit ORs never lose updates (the non-blocking
     buddy's ancestor-marking pattern) *)
  let m = machine ~ncpus:4 () in
  Machine.run_symmetric m ~ncpus:4 (fun cpu ->
      for _ = 1 to 100 do
        ignore (Machine.fetch_or 16 (1 lsl cpu));
        ignore (Machine.fetch_and 24 (lnot (1 lsl cpu)))
      done);
  Alcotest.(check int) "all bits set" 0b1111 (Memory.get (Machine.memory m) 16)

let test_new_rmw_costs () =
  (* every RMW flavour pays exactly the same charge: the rmw geometry
     knob, through the same cache path *)
  let elapsed_of op =
    let m = machine ~ncpus:1 () in
    Machine.run m [| (fun _ -> op ()) |];
    Machine.elapsed m
  in
  let base = elapsed_of (fun () -> ignore (Machine.fetch_add 16 1)) in
  Alcotest.(check int) "fetch_or" base
    (elapsed_of (fun () -> ignore (Machine.fetch_or 16 1)));
  Alcotest.(check int) "fetch_and" base
    (elapsed_of (fun () -> ignore (Machine.fetch_and 16 1)));
  Alcotest.(check int) "cas_val" base
    (elapsed_of (fun () -> ignore (Machine.cas_val 16 ~expected:0 ~desired:1)));
  Alcotest.(check int) "spin_cas on a free word" base
    (elapsed_of (fun () -> ignore (Machine.spin_cas 16 ~expected:0 ~desired:1)))

(* A plain read-increment-write is NOT atomic in the simulation: with
   interleaving CPUs, updates are lost — the machine really does model a
   racy shared memory. *)
let test_plain_rmw_races () =
  let m = machine ~ncpus:4 () in
  Machine.run_symmetric m ~ncpus:4 (fun _ ->
      for _ = 1 to 500 do
        let v = Machine.read 16 in
        Machine.write 16 (v + 1)
      done);
  let total = Memory.get (Machine.memory m) 16 in
  Alcotest.(check bool) "updates lost" true (total < 2000);
  Alcotest.(check bool) "some progress" true (total >= 500)

let test_spinlock_mutual_exclusion () =
  let m = machine ~ncpus:4 () in
  let lock = Spinlock.init (Machine.memory m) 8 in
  Machine.run_symmetric m ~ncpus:4 (fun _ ->
      for _ = 1 to 250 do
        Spinlock.with_lock lock (fun () ->
            let v = Machine.read 16 in
            Machine.work 3;
            Machine.write 16 (v + 1))
      done);
  Alcotest.(check int) "exact count under lock" 1000
    (Memory.get (Machine.memory m) 16);
  Alcotest.(check bool) "lock released" false
    (Spinlock.holder_oracle (Machine.memory m) lock)

let test_lock_contention_costs () =
  (* Under contention the same critical section takes far more cycles per
     operation than uncontended: the core phenomenon the paper's
     allocator avoids. *)
  let run ncpus =
    let m = machine ~ncpus () in
    let lock = Spinlock.init (Machine.memory m) 8 in
    Machine.run_symmetric m ~ncpus (fun _ ->
        for _ = 1 to 200 do
          Spinlock.with_lock lock (fun () ->
              let v = Machine.read 16 in
              Machine.write 16 (v + 1))
        done);
    float_of_int (Machine.elapsed m) /. float_of_int (200 * ncpus)
  in
  let per_op_1 = run 1 and per_op_4 = run 4 in
  Alcotest.(check bool)
    (Printf.sprintf "contended %.1f > 2x uncontended %.1f" per_op_4 per_op_1)
    true
    (per_op_4 > 2.0 *. per_op_1)

let test_virtual_time_accumulates_across_runs () =
  let m = machine () in
  Machine.run m [| (fun _ -> Machine.work 100) |];
  Machine.run m [| (fun _ -> Machine.work 50) |];
  Alcotest.(check int) "accumulated" 150 (Machine.cpu_time m ~cpu:0);
  Machine.reset_clocks m;
  Alcotest.(check int) "reset" 0 (Machine.cpu_time m ~cpu:0)

let test_irq_flag () =
  let m = machine () in
  let mid = ref true and after = ref false in
  Machine.run m
    [|
      (fun _ ->
        Machine.irq_disable ();
        (* observe the flag from inside via host closure *)
        mid := Machine.irq_disabled_oracle m ~cpu:0;
        Machine.irq_enable ();
        after := Machine.irq_disabled_oracle m ~cpu:0);
    |];
  Alcotest.(check bool) "disabled inside" true !mid;
  Alcotest.(check bool) "enabled after" false !after

let test_ops_outside_simulation () =
  Alcotest.check_raises "read outside" Machine.Not_in_simulation (fun () ->
      ignore (Machine.read 0))

(* The checks' host-side read: the word, at no cost and with no
   cache traffic, and only inside a program. *)
let test_peek_is_free () =
  let m = machine ~ncpus:1 ~cache_lines:64 () in
  let seen = ref 0 and same = ref false in
  Machine.run m
    [|
      (fun _ ->
        Machine.write 100 42;
        let state () =
          let s = Cache.stats (Machine.cache m) ~cpu:0 in
          ( Machine.cpu_time m ~cpu:0,
            Machine.retired m ~cpu:0,
            { s with loads = s.loads } )
        in
        let before = state () in
        seen := Machine.peek 100 + Machine.peek 4096;
        same := state () = before);
    |];
  Alcotest.(check int) "reads the words" 42 !seen;
  Alcotest.(check bool) "clock, retired count and cache stats unchanged"
    true !same;
  Alcotest.check_raises "peek outside" Machine.Not_in_simulation (fun () ->
      ignore (Machine.peek 100))

let test_too_many_programs () =
  let m = machine ~ncpus:2 () in
  match Machine.run m (Array.make 3 (fun _ -> ())) with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_watchdog_catches_livelock () =
  let m = machine ~ncpus:2 () in
  match
    Machine.run ~max_cycles:50_000 m
      [|
        (fun _ ->
          (* Spins on a signal nobody will ever write. *)
          while Machine.read 8 = 0 do
            Machine.spin_pause ()
          done);
        (fun _ -> Machine.work 10);
      |]
  with
  | () -> Alcotest.fail "expected Watchdog"
  | exception Machine.Watchdog t ->
      Alcotest.(check bool) "expired past the limit" true (t > 50_000)

let test_watchdog_quiet_on_success () =
  let m = machine () in
  Machine.run ~max_cycles:1_000_000 m [| (fun _ -> Machine.work 100) |];
  Alcotest.(check int) "ran normally" 100 (Machine.cpu_time m ~cpu:0)

(* What the run would take on an infinitely wide bus: each CPU's
   accesses cost their instruction plus their cache stall and nothing
   else, so the slowest CPU's sum is the elapsed time. *)
let free_bus_elapsed m ~ncpus =
  let g = (Machine.config m).Config.geometry in
  List.fold_left max 0
    (List.init ncpus (fun cpu ->
         (Machine.retired m ~cpu * g.Geometry.insn_cost)
         + (Cache.stats (Machine.cache m) ~cpu).Cache.stall_cycles))

let test_bus_model_single_cpu_neutral () =
  (* With one CPU nothing ever queues on the bus, so the model must not
     change single-CPU timings (this protects every single-CPU
     calibration, including the 15x headline ratio). *)
  let m =
    Machine.create
      (Config.make ~ncpus:1 ~memory_words:65536
         ~geometry:{ Geometry.default with cache_lines = 64 }
         ())
  in
  Machine.run m
    [|
      (fun _ ->
        for i = 0 to 2000 do
          Machine.write ((i * 7) mod 4096) i;
          ignore (Machine.read ((i * 13) mod 4096))
        done);
    |];
  Alcotest.(check int) "identical timing"
    (free_bus_elapsed m ~ncpus:1)
    (Machine.elapsed m)

let test_bus_model_serialises_misses () =
  (* Eight CPUs streaming back-to-back misses oversubscribe the bus
     (8 transfers x 1/4 occupancy > 1), so the run takes visibly longer
     than with an infinitely wide bus. *)
  let m =
    Machine.create
      (Config.make ~ncpus:8 ~memory_words:131072
         ~geometry:{ Geometry.default with cache_lines = 8 }
         ())
  in
  Machine.run_symmetric m ~ncpus:8 (fun cpu ->
      for i = 0 to 2000 do
        (* Disjoint per-CPU streams: pure capacity misses, no
           coherence, so the only interaction is the bus itself. *)
        ignore (Machine.read (8192 + (cpu * 8192) + (i * 8 mod 8192)))
      done);
  let free_bus = free_bus_elapsed m ~ncpus:8 and queued = Machine.elapsed m in
  Alcotest.(check bool)
    (Printf.sprintf "queued %d > free %d" queued free_bus)
    true
    (queued > free_bus + (free_bus / 2))

let test_vmsys_accounting () =
  let m = machine () in
  let vm = Vmsys.create ~total_pages:2 ~grant_cost:100 ~reclaim_cost:50 in
  let results = ref [] in
  Machine.run m
    [|
      (fun _ ->
        results := Vmsys.grant vm :: !results;
        results := Vmsys.grant vm :: !results;
        results := Vmsys.grant vm :: !results;
        Vmsys.reclaim vm;
        results := Vmsys.grant vm :: !results);
    |];
  Alcotest.(check (list bool))
    "grant/exhaust/reclaim/grant"
    [ true; true; false; true ]
    (List.rev !results);
  Alcotest.(check int) "granted" 2 (Vmsys.granted vm);
  Alcotest.(check int) "peak" 2 (Vmsys.peak_granted vm);
  Alcotest.(check int) "grants counted" 3 (Vmsys.grant_count vm);
  (* 4 grant attempts (one failed, still charged) + 1 reclaim *)
  Alcotest.(check int) "cycles charged" 450 (Machine.cpu_time m ~cpu:0)

let test_vmsys_fault_injection () =
  let m = machine () in
  let vm = Vmsys.create ~total_pages:100 ~grant_cost:10 ~reclaim_cost:5 in
  (* rate 1.0: every grant denied, all denials flagged as injected, and
     nothing is actually handed out. *)
  Vmsys.set_fault_rate vm ~seed:11 1.0;
  Machine.run m
    [|
      (fun _ ->
        for _ = 1 to 5 do
          Alcotest.(check bool) "denied" false (Vmsys.grant vm)
        done);
    |];
  Alcotest.(check int) "denials counted" 5 (Vmsys.denial_count vm);
  Alcotest.(check int) "all injected" 5 (Vmsys.injected_denial_count_oracle vm);
  Alcotest.(check int) "nothing granted" 0 (Vmsys.granted vm);
  (* Failed grants are still charged: the caller paid for the trip. *)
  Alcotest.(check int) "grant cost charged" 50 (Machine.cpu_time m ~cpu:0);
  (* rate 0.0 turns the faults back off on the same instance. *)
  Vmsys.set_fault_rate vm 0.0;
  Machine.run m [| (fun _ -> Alcotest.(check bool) "granted" true (Vmsys.grant vm)) |];
  Alcotest.(check int) "injected count unchanged" 5
    (Vmsys.injected_denial_count_oracle vm);
  (* Same seed and rate => identical draw sequence. *)
  let denials seed =
    let m = machine () in
    let vm = Vmsys.create ~total_pages:100 ~grant_cost:0 ~reclaim_cost:0 in
    Vmsys.set_fault_rate vm ~seed 0.5;
    let outcomes = ref [] in
    Machine.run m
      [|
        (fun _ ->
          for _ = 1 to 64 do
            outcomes := Vmsys.grant vm :: !outcomes
          done);
      |];
    !outcomes
  in
  Alcotest.(check (list bool)) "deterministic" (denials 42) (denials 42);
  Alcotest.(check bool) "seed changes the sequence" true
    (denials 42 <> denials 43);
  (* Exhaustion denials are counted but not flagged as injected. *)
  let vm2 = Vmsys.create ~total_pages:1 ~grant_cost:0 ~reclaim_cost:0 in
  let m2 = machine () in
  Machine.run m2
    [| (fun _ -> ignore (Vmsys.grant vm2); ignore (Vmsys.grant vm2)) |];
  Alcotest.(check int) "exhaustion denial" 1 (Vmsys.denial_count vm2);
  Alcotest.(check int) "not injected" 0 (Vmsys.injected_denial_count_oracle vm2);
  Alcotest.check_raises "rate out of range"
    (Invalid_argument "Sim.Vmsys.set_fault_rate: rate outside [0,1]")
    (fun () -> Vmsys.set_fault_rate vm2 (-0.1))

(* Property: under the spinlock, any mix of add amounts from any number
   of CPUs sums exactly. *)
let prop_locked_counter_exact =
  QCheck.Test.make ~name:"locked counter is exact" ~count:30
    QCheck.(pair (int_range 1 4) (small_list (int_bound 100)))
    (fun (ncpus, amounts) ->
      let m = machine ~ncpus () in
      let lock = Spinlock.init (Machine.memory m) 8 in
      Machine.run_symmetric m ~ncpus (fun _ ->
          List.iter
            (fun a ->
              Spinlock.with_lock lock (fun () ->
                  let v = Machine.read 16 in
                  Machine.write 16 (v + a)))
            amounts);
      Memory.get (Machine.memory m) 16
      = ncpus * List.fold_left ( + ) 0 amounts)

(* Host words [f] allocates, minor and major, by [Gc.counters].  The
   window starts on an empty minor heap: without the [Gc.minor], a
   window that a minor collection interrupts read ~145 k words high
   under the test runner, whatever [f] was. *)
let words_allocated f =
  Gc.minor ();
  let mi0, pr0, ma0 = Gc.counters () in
  ignore (Sys.opaque_identity (f ()));
  let mi1, pr1, ma1 = Gc.counters () in
  mi1 -. mi0 +. (ma1 -. ma0) -. (pr1 -. pr0)

(* What a machine costs the host at boot: its page table and the flat
   line directory, but no memory page and no cache queue chunk, since
   nothing has run.  Each bound leaves ~15 % over the directory's
   [nlines * 2] words. *)
let boot_words ~ncpus ~memory_words geometry =
  words_allocated (fun () ->
      Machine.create
        (Config.make ~geometry ~ncpus ~memory_words ~uncached_words:512 ()))

let pin_boot name ~bound words =
  if words > bound then
    Alcotest.failf "%s: Machine.create allocated %.0f words, bound %.0f" name
      words bound

(* perfbench's machine: 25 CPUs, 4 Mi words, one fully associative set. *)
let test_boot_local_shape () =
  pin_boot "perfbench's local shape" ~bound:1.2e6
    (boot_words ~ncpus:25 ~memory_words:(4 * 1024 * 1024) Geometry.default)

(* E12's direct-mapped cell: 8 CPUs, 2 Mi words, 256 one-line sets per
   CPU. *)
let test_boot_direct_mapped () =
  pin_boot "E12's direct-mapped cell" ~bound:0.6e6
    (boot_words ~ncpus:8 ~memory_words:(2 * 1024 * 1024)
       { Geometry.default with line_words = 8; ways = 1 })

(* Property: elapsed time is monotone in the amount of work done. *)
let prop_time_monotone =
  QCheck.Test.make ~name:"virtual time monotone in work" ~count:50
    QCheck.(pair (int_bound 500) (int_bound 500))
    (fun (w1, w2) ->
      let run w =
        let m = machine ~ncpus:1 () in
        Machine.run m [| (fun _ -> Machine.work w) |];
        Machine.elapsed m
      in
      (w1 <= w2) = (run w1 <= run w2))

let suite =
  [
    Alcotest.test_case "read/write roundtrip" `Quick test_read_write_roundtrip;
    Alcotest.test_case "work charges time" `Quick test_work_charges_time;
    Alcotest.test_case "cpu_id and now" `Quick test_cpu_id_and_now;
    Alcotest.test_case "runs are deterministic" `Quick test_determinism;
    Alcotest.test_case "fetch_add is atomic" `Quick test_fetch_add_atomic;
    Alcotest.test_case "bitwise rmw semantics" `Quick
      test_bitwise_rmw_semantics;
    Alcotest.test_case "bitwise rmw atomic" `Quick test_bitwise_rmw_atomic;
    Alcotest.test_case "new rmw flavours cost like fetch_add" `Quick
      test_new_rmw_costs;
    Alcotest.test_case "plain rmw races (lost updates)" `Quick
      test_plain_rmw_races;
    Alcotest.test_case "spinlock mutual exclusion" `Quick
      test_spinlock_mutual_exclusion;
    Alcotest.test_case "lock contention inflates cost" `Quick
      test_lock_contention_costs;
    Alcotest.test_case "virtual time across runs" `Quick
      test_virtual_time_accumulates_across_runs;
    Alcotest.test_case "irq flag tracked" `Quick test_irq_flag;
    Alcotest.test_case "ops outside simulation rejected" `Quick
      test_ops_outside_simulation;
    Alcotest.test_case "peek reads host-side at no cost" `Quick
      test_peek_is_free;
    Alcotest.test_case "too many programs rejected" `Quick
      test_too_many_programs;
    Alcotest.test_case "watchdog catches livelock" `Quick
      test_watchdog_catches_livelock;
    Alcotest.test_case "watchdog quiet on success" `Quick
      test_watchdog_quiet_on_success;
    Alcotest.test_case "bus model neutral on one CPU" `Quick
      test_bus_model_single_cpu_neutral;
    Alcotest.test_case "bus model serialises misses" `Quick
      test_bus_model_serialises_misses;
    Alcotest.test_case "vmsys accounting" `Quick test_vmsys_accounting;
    Alcotest.test_case "vmsys fault injection" `Quick
      test_vmsys_fault_injection;
    Alcotest.test_case "perfbench's machine boots in 1.2 M words" `Quick
      test_boot_local_shape;
    Alcotest.test_case "a direct-mapped machine boots in 0.6 M words" `Quick
      test_boot_direct_mapped;
    QCheck_alcotest.to_alcotest prop_locked_counter_exact;
    QCheck_alcotest.to_alcotest prop_time_monotone;
  ]
