(* Seeded-violation tests: deliberately wrong synchronization inside
   the real simulator must be caught through the production hooks
   (Sim.Spinlock, Sim.Vmsys) — not by driving Lockcheck directly.  The
   per-CPU discipline has no public hook that a bug can reach, so its
   tests seed the access through the same host-side call Kma.Percpu's
   probe makes.  Each test checks the report names the offending locks
   or CPUs.  The checker runs in record mode (abort:false) so the runs
   complete and we can inspect everything it found. *)

open Sim

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl > 0 && go 0

let with_checker f =
  Lockcheck.enable ~abort:false ();
  Fun.protect ~finally:Lockcheck.disable f

let has_violation rule sub =
  List.exists
    (fun (r, msg) -> r = rule && contains msg sub)
    (Lockcheck.violations_oracle ())

(* Kma.Percpu's probe: simulated code is about to touch CPU [owner]'s
   cache state, with the running CPU's interrupt flag. *)
let percpu_probe ~owner =
  match Machine.running () with
  | Some (cpu, time) ->
      Lockcheck.percpu_access ~cpu ~time ~owner
        ~irq_off:(Machine.running_irq_off ())
  | None -> ()

let machine ~ncpus () =
  Machine.create
    (Config.make ~ncpus
       ~geometry:{ Geometry.default with cache_lines = 0 }
       ~memory_words:65536 ())

(* The lockdep value proposition: the two runs below never deadlock —
   each takes both locks alone — yet the order cycle is detected,
   because order is a property of the graph, not of an unlucky
   interleaving. *)
let test_abba_order_cycle () =
  with_checker (fun () ->
      let m = machine ~ncpus:1 () in
      let mem = Machine.memory m in
      let a = Spinlock.init mem 64 and b = Spinlock.init mem 80 in
      Lockcheck.register_lock ~addr:64 ~name:"lockA" ();
      Lockcheck.register_lock ~addr:80 ~name:"lockB" ();
      Machine.run m
        [|
          (fun _ ->
            Spinlock.with_lock a (fun () ->
                Spinlock.with_lock b (fun () -> Machine.work 5)));
        |];
      Alcotest.(check int) "A-then-B alone is clean" 0
        (Lockcheck.violation_count_oracle ());
      Machine.run m
        [|
          (fun _ ->
            Spinlock.with_lock b (fun () ->
                Spinlock.with_lock a (fun () -> Machine.work 5)));
        |];
      Alcotest.(check bool) "B-then-A closes the ABBA cycle" true
        (has_violation Lockcheck.Lock_order "closes order cycle");
      Alcotest.(check bool) "report names lockA" true
        (has_violation Lockcheck.Lock_order "lockA");
      Alcotest.(check bool) "report names lockB" true
        (has_violation Lockcheck.Lock_order "lockB"))

let test_irq_enabled_percpu_access () =
  with_checker (fun () ->
      let m = machine ~ncpus:1 () in
      Machine.run m
        [|
          (fun _ ->
            (* Disciplined access first: irqs off, own state. *)
            Machine.irq_disable ();
            percpu_probe ~owner:0;
            Machine.irq_enable ();
            (* Seeded bug: touch per-CPU state with interrupts enabled. *)
            percpu_probe ~owner:0);
        |];
      Alcotest.(check bool) "interrupts-enabled access caught" true
        (has_violation Lockcheck.Irq_discipline "interrupts enabled");
      Alcotest.(check int) "exactly one violation" 1
        (Lockcheck.violation_count_oracle ()))

let test_cross_cpu_percpu_access () =
  with_checker (fun () ->
      let m = machine ~ncpus:2 () in
      Machine.run m
        [|
          (fun _ ->
            (* Seeded bug: CPU 0 touches CPU 1's cache state (hard
               error even with interrupts off). *)
            Machine.irq_disable ();
            percpu_probe ~owner:1;
            Machine.irq_enable ());
          (fun _ -> Machine.work 1);
        |];
      Alcotest.(check bool) "cross-CPU access caught" true
        (has_violation Lockcheck.Irq_discipline
           "cpu 0 touched per-CPU cache state owned by cpu 1"))

let test_lock_held_across_vm_call () =
  with_checker (fun () ->
      let m = machine ~ncpus:1 () in
      let vmsys = Vmsys.create ~total_pages:8 ~grant_cost:5 ~reclaim_cost:5 in
      let l = Spinlock.init (Machine.memory m) 64 in
      Lockcheck.register_lock ~addr:64 ~name:"rawlock" ();
      Machine.run m
        [|
          (fun _ ->
            (* Seeded bug: enter the VM system holding a lock whose
               class is not vm_safe. *)
            Spinlock.with_lock l (fun () -> ignore (Vmsys.grant vmsys)));
        |];
      Alcotest.(check bool) "vm-hold caught, names the lock" true
        (has_violation Lockcheck.Vm_hold "rawlock");
      Alcotest.(check bool) "names the entry point" true
        (has_violation Lockcheck.Vm_hold "Vmsys.grant"))

(* The production allocator, run clean: the checker must reconstruct
   the documented gbl -> pagepool -> vmblk order and find nothing. *)
let test_clean_kmem_run () =
  with_checker (fun () ->
      (* kmem needs room for a full vmblk; the seeded tests above get
         by with the small default machine. *)
      let m =
        Machine.create
          (Config.make ~ncpus:2
             ~geometry:{ Geometry.default with cache_lines = 0 }
             ~memory_words:(2 * 1024 * 1024) ())
      in
      let kmem = Kma.Kmem.create m () in
      Machine.run_symmetric m ~ncpus:2 (fun _ ->
          let slots = Array.make 64 0 in
          for round = 1 to 5 do
            for i = 0 to 63 do
              slots.(i) <- Kma.Kmem.alloc kmem ~bytes:(64 * ((i mod 3) + 1))
            done;
            for i = 63 downto 0 do
              Kma.Kmem.free kmem ~addr:slots.(i)
                ~bytes:(64 * ((i mod 3) + 1))
            done;
            ignore round
          done);
      Alcotest.(check int) "no violations" 0 (Lockcheck.violation_count_oracle ());
      let edges = Lockcheck.order_edges_oracle () in
      Alcotest.(check bool) "observed gbl -> pagepool" true
        (List.mem ("kma.gbl", "kma.pagepool") edges);
      Alcotest.(check bool) "observed pagepool -> vmblk" true
        (List.mem ("kma.pagepool", "kma.vmblk") edges);
      Alcotest.(check bool) "no reversed edge" true
        (not (List.mem ("kma.vmblk", "kma.gbl") edges));
      Alcotest.(check bool) "irq discipline was exercised" true
        (Lockcheck.check_count_oracle Lockcheck.Irq_discipline > 0);
      Alcotest.(check bool) "vm entries were checked" true
        (Lockcheck.check_count_oracle Lockcheck.Vm_hold > 0))

let suite =
  [
    Alcotest.test_case "seeded ABBA lock order is caught" `Quick
      test_abba_order_cycle;
    Alcotest.test_case "seeded interrupts-enabled access is caught" `Quick
      test_irq_enabled_percpu_access;
    Alcotest.test_case "seeded cross-CPU access is caught" `Quick
      test_cross_cpu_percpu_access;
    Alcotest.test_case "seeded lock-across-Vmsys is caught" `Quick
      test_lock_held_across_vm_call;
    Alcotest.test_case "clean kmem run: right order, zero violations"
      `Quick test_clean_kmem_run;
  ]
