(* VM-system fault injection: Kmem degrades to [try_alloc = None] while
   grants are denied, recovers when the fault clears, and the denials
   surface as flight-recorder events. *)

let on_cpu m f =
  let r = ref None in
  Sim.Machine.run m [| (fun _ -> r := Some (f ())) |];
  Option.get !r

let fresh_kmem () =
  let m = Sim.Machine.create (Sim.Config.make ~ncpus:2 ~memory_words:131072 ()) in
  let kmem = Kma.Kmem.create m ~params:(Kma.Params.make ~vmblk_pages:16 ()) () in
  (m, kmem)

let test_degrade_and_recover () =
  let m, kmem = fresh_kmem () in
  let vm = Kma.Kmem.vmsys kmem in
  (* Total denial: a fresh allocator has no cached blocks, so both the
     small path (needs a page split) and the large path (needs a span
     backed) must fail... *)
  Sim.Vmsys.set_fault_rate vm ~seed:7 1.0;
  let small, large =
    on_cpu m (fun () ->
        ( Kma.Kmem.try_alloc kmem ~bytes:64,
          Kma.Kmem.try_alloc kmem ~bytes:32768 ))
  in
  Alcotest.(check bool) "small alloc degrades to None" true (small = None);
  Alcotest.(check bool) "large alloc degrades to None" true (large = None);
  Alcotest.(check bool) "denials counted" true
    (Sim.Vmsys.denial_count vm > 0);
  Alcotest.(check int) "all denials injected"
    (Sim.Vmsys.denial_count vm)
    (Sim.Vmsys.injected_denial_count_oracle vm);
  Alcotest.(check int) "no pages leaked by failed backing" 0
    (Sim.Vmsys.granted vm);
  (* ...and the same allocator recovers the moment the fault clears. *)
  Sim.Vmsys.set_fault_rate vm 0.0;
  let small2, large2 =
    on_cpu m (fun () ->
        ( Kma.Kmem.try_alloc kmem ~bytes:64,
          Kma.Kmem.try_alloc kmem ~bytes:32768 ))
  in
  Alcotest.(check bool) "small alloc recovers" true (small2 <> None);
  Alcotest.(check bool) "large alloc recovers" true (large2 <> None)

let test_partial_fault_rate () =
  let m, kmem = fresh_kmem () in
  let vm = Kma.Kmem.vmsys kmem in
  Sim.Vmsys.set_fault_rate vm ~seed:3 0.5;
  (* Under a 50% grant-denial rate some allocations still succeed (the
     per-CPU cache amortises page grabs) and the machine makes
     progress. *)
  let got =
    on_cpu m (fun () ->
        let got = ref 0 in
        for _ = 1 to 200 do
          match Kma.Kmem.try_alloc kmem ~bytes:64 with
          | Some a ->
              incr got;
              Kma.Kmem.free kmem ~addr:a ~bytes:64
          | None -> ()
        done;
        !got)
  in
  Alcotest.(check bool) "some allocations survive" true (got > 0);
  (* The draw sequence is deterministic: the same seed and rate deny
     the same grants. *)
  let rerun () =
    let m, kmem = fresh_kmem () in
    let vm = Kma.Kmem.vmsys kmem in
    Sim.Vmsys.set_fault_rate vm ~seed:3 0.5;
    let r =
      on_cpu m (fun () ->
          let got = ref 0 in
          for _ = 1 to 200 do
            match Kma.Kmem.try_alloc kmem ~bytes:64 with
            | Some a ->
                incr got;
                Kma.Kmem.free kmem ~addr:a ~bytes:64
            | None -> ()
          done;
          !got)
    in
    (r, Sim.Vmsys.denial_count vm)
  in
  let a = rerun () and b = rerun () in
  Alcotest.(check bool) "deterministic" true (a = b)

let test_denials_surface_as_events () =
  let m, kmem = fresh_kmem () in
  let vm = Kma.Kmem.vmsys kmem in
  let fr = Flightrec.Recorder.create ~ncpus:2 () in
  Flightrec.Recorder.install fr;
  Fun.protect
    ~finally:(fun () -> Flightrec.Recorder.uninstall ())
    (fun () ->
      Sim.Vmsys.set_fault_rate vm ~seed:7 1.0;
      ignore (on_cpu m (fun () -> Kma.Kmem.try_alloc kmem ~bytes:64));
      let denials =
        Flightrec.Recorder.events fr
          ~kind:(fun k ->
            match k with
            | Flightrec.Event.Vm_denial { injected = true } -> true
            | _ -> false)
      in
      Alcotest.(check bool) "injected denials recorded" true
        (List.length denials > 0);
      Alcotest.(check int) "event count matches the counter"
        (Sim.Vmsys.injected_denial_count_oracle vm)
        (List.length denials);
      (* The allocation attempt itself is also visible as a failure. *)
      let fails =
        Flightrec.Recorder.events fr
          ~kind:(fun k ->
            match k with Flightrec.Event.Alloc_fail _ -> true | _ -> false)
      in
      Alcotest.(check int) "alloc failure recorded" 1 (List.length fails))

let test_bad_rate_rejected () =
  let vm = Sim.Vmsys.create ~total_pages:1 ~grant_cost:0 ~reclaim_cost:0 in
  Alcotest.check_raises "rate > 1"
    (Invalid_argument "Sim.Vmsys.set_fault_rate: rate outside [0,1]")
    (fun () -> Sim.Vmsys.set_fault_rate vm 1.5)

let suite =
  [
    Alcotest.test_case "degrade to None and recover" `Quick
      test_degrade_and_recover;
    Alcotest.test_case "partial fault rate, deterministic" `Quick
      test_partial_fault_rate;
    Alcotest.test_case "denials surface as events" `Quick
      test_denials_surface_as_events;
    Alcotest.test_case "bad rate rejected" `Quick test_bad_rate_rejected;
  ]
