(* Host-side unit tests of the Lockcheck engine: the order graph, the
   recursion/same-class rules, the vm_safe whitelist, the interrupt
   discipline, abort-vs-record modes and the text report.  No simulator
   involved — hooks are driven directly with explicit cpu/time. *)

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl > 0 && go 0

let with_checker ?(abort = false) f =
  Lockcheck.enable ~abort ();
  Fun.protect ~finally:Lockcheck.disable f

let has_violation rule sub =
  List.exists
    (fun (r, msg) -> r = rule && contains msg sub)
    (Lockcheck.violations_oracle ())

let test_order_edges_and_cycle () =
  with_checker (fun () ->
      Lockcheck.register_lock ~addr:1 ~name:"A" ();
      Lockcheck.register_lock ~addr:2 ~name:"B" ();
      (* Legal order: A then B. *)
      Lockcheck.acquire ~cpu:0 ~time:10 ~addr:1;
      Lockcheck.acquire ~cpu:0 ~time:20 ~addr:2;
      Lockcheck.release ~cpu:0 ~time:30 ~addr:2;
      Lockcheck.release ~cpu:0 ~time:40 ~addr:1;
      Alcotest.(check (list (pair string string)))
        "one edge" [ ("A", "B") ] (Lockcheck.order_edges_oracle ());
      Alcotest.(check int) "no violations yet" 0 (Lockcheck.violation_count_oracle ());
      (* Opposite order closes the cycle — caught at acquire time. *)
      Lockcheck.acquire ~cpu:1 ~time:50 ~addr:2;
      Lockcheck.acquire ~cpu:1 ~time:60 ~addr:1;
      Alcotest.(check int) "cycle recorded" 1 (Lockcheck.violation_count_oracle ());
      Alcotest.(check bool) "names the locks and the cycle" true
        (has_violation Lockcheck.Lock_order "closes order cycle");
      Alcotest.(check bool) "mentions lock A" true
        (has_violation Lockcheck.Lock_order "A");
      Alcotest.(check int) "max depth 2" 2 (Lockcheck.max_hold_depth_oracle ()))

let test_recursive_acquire () =
  with_checker (fun () ->
      Lockcheck.register_lock ~addr:7 ~name:"L" ();
      Lockcheck.acquire ~cpu:0 ~time:1 ~addr:7;
      Lockcheck.acquire ~cpu:0 ~time:2 ~addr:7;
      Alcotest.(check bool) "recursion caught" true
        (has_violation Lockcheck.Lock_order "recursive"))

let test_same_class_nesting () =
  with_checker (fun () ->
      Lockcheck.register_lock ~addr:1 ~name:"g1" ~cls:"gbl" ();
      Lockcheck.register_lock ~addr:2 ~name:"g2" ~cls:"gbl" ();
      Lockcheck.acquire ~cpu:0 ~time:1 ~addr:1;
      Lockcheck.acquire ~cpu:0 ~time:2 ~addr:2;
      Alcotest.(check bool) "same-class nesting caught" true
        (has_violation Lockcheck.Lock_order "same class"))

let test_vm_safe_whitelist () =
  with_checker (fun () ->
      Lockcheck.register_lock ~addr:1 ~name:"safe" ~vm_safe:true ();
      Lockcheck.acquire ~cpu:0 ~time:1 ~addr:1;
      Lockcheck.vm_call ~cpu:0 ~time:2 ~what:"grant";
      Alcotest.(check int) "vm_safe lock tolerated" 0
        (Lockcheck.violation_count_oracle ());
      (* An unregistered lock defaults to not-vm_safe. *)
      Lockcheck.acquire ~cpu:0 ~time:3 ~addr:99;
      Lockcheck.vm_call ~cpu:0 ~time:4 ~what:"grant";
      Alcotest.(check bool) "unregistered lock flagged" true
        (has_violation Lockcheck.Vm_hold "lock@99");
      Alcotest.(check int) "vm checks counted" 2
        (Lockcheck.check_count_oracle Lockcheck.Vm_hold))

let test_irq_discipline () =
  with_checker (fun () ->
      Lockcheck.percpu_access ~cpu:0 ~time:1 ~owner:0 ~irq_off:true;
      Alcotest.(check int) "disciplined access ok" 0
        (Lockcheck.violation_count_oracle ());
      Lockcheck.percpu_access ~cpu:0 ~time:2 ~owner:0 ~irq_off:false;
      Alcotest.(check bool) "interrupts-enabled access caught" true
        (has_violation Lockcheck.Irq_discipline "interrupts enabled");
      Lockcheck.percpu_access ~cpu:0 ~time:3 ~owner:1 ~irq_off:true;
      Alcotest.(check bool) "cross-CPU access caught" true
        (has_violation Lockcheck.Irq_discipline "owned by cpu 1"))

let test_abort_mode_raises () =
  with_checker ~abort:true (fun () ->
      Lockcheck.acquire ~cpu:0 ~time:1 ~addr:5;
      Alcotest.check_raises "violation raises"
        (Lockcheck.Violation
           "lockcheck: lock-order violation (cpu 0, t=2): recursive \
            acquisition of lock@5 (first taken t=1)")
        (fun () -> Lockcheck.acquire ~cpu:0 ~time:2 ~addr:5))

let test_release_unknown_ignored () =
  with_checker (fun () ->
      Lockcheck.release ~cpu:3 ~time:1 ~addr:42;
      Alcotest.(check int) "no violation" 0 (Lockcheck.violation_count_oracle ()))

let test_flightrec_event_emitted () =
  let fr = Flightrec.Recorder.create ~ncpus:1 () in
  Flightrec.Recorder.install fr;
  Fun.protect
    ~finally:(fun () -> Flightrec.Recorder.uninstall ())
    (fun () ->
      with_checker (fun () ->
          Lockcheck.percpu_access ~cpu:0 ~time:5 ~owner:0 ~irq_off:false));
  Alcotest.(check bool) "violation event in the trace" true
    (List.exists
       (fun (e : Flightrec.Event.t) ->
         match e.kind with
         | Flightrec.Event.Lockcheck_violation _ -> true
         | _ -> false)
       (Flightrec.Recorder.events fr))

let test_report_sections () =
  with_checker (fun () ->
      Lockcheck.register_lock ~addr:1 ~name:"A" ();
      Lockcheck.register_lock ~addr:2 ~name:"B" ();
      Lockcheck.acquire ~cpu:0 ~time:1 ~addr:1;
      Lockcheck.acquire ~cpu:0 ~time:2 ~addr:2;
      Lockcheck.vm_call ~cpu:0 ~time:3 ~what:"grant";
      let s = Lockcheck.report () in
      List.iter
        (fun sub -> Alcotest.(check bool) sub true (contains s sub))
        [
          "== lockcheck report ==";
          "-- locks seen --";
          "-- lock-order edges --";
          "[A] -> [B]";
          "max hold depth        2";
          "-- violations:";
        ])

let test_disabled_hooks_are_noops () =
  Lockcheck.disable ();
  Alcotest.(check bool) "off" false (Lockcheck.on ());
  Lockcheck.acquire ~cpu:0 ~time:1 ~addr:1;
  Lockcheck.percpu_access ~cpu:0 ~time:1 ~owner:9 ~irq_off:false;
  Lockcheck.vm_call ~cpu:0 ~time:1 ~what:"grant";
  Alcotest.(check int) "nothing recorded" 0 (Lockcheck.violation_count_oracle ());
  Alcotest.(check bool) "report says disabled" true
    (contains (Lockcheck.report ()) "disabled")

let suite =
  [
    Alcotest.test_case "order edges recorded; opposite order = cycle" `Quick
      test_order_edges_and_cycle;
    Alcotest.test_case "recursive acquisition caught" `Quick
      test_recursive_acquire;
    Alcotest.test_case "same-class nesting caught" `Quick
      test_same_class_nesting;
    Alcotest.test_case "vm_safe whitelist honoured" `Quick
      test_vm_safe_whitelist;
    Alcotest.test_case "interrupt discipline enforced" `Quick
      test_irq_discipline;
    Alcotest.test_case "abort mode raises Violation" `Quick
      test_abort_mode_raises;
    Alcotest.test_case "release of unseen lock ignored" `Quick
      test_release_unknown_ignored;
    Alcotest.test_case "violations reach the flight recorder" `Quick
      test_flightrec_event_emitted;
    Alcotest.test_case "report renders every section" `Quick
      test_report_sections;
    Alcotest.test_case "hooks are no-ops while disabled" `Quick
      test_disabled_hooks_are_noops;
  ]
