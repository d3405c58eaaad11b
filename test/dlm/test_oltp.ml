(* The OLTP driver: completes without exhausting memory, produces the
   allocator traffic the miss-rate experiment needs, and leaks
   nothing. *)

let build ?(ncpus = 2) () =
  let cfg =
    Sim.Config.make ~ncpus ~memory_words:(512 * 1024)
      ~geometry:{ Sim.Geometry.default with cache_lines = 0 }
      ()
  in
  let m = Sim.Machine.create cfg in
  let kmem =
    Kma.Kmem.create m
      ~params:(Kma.Params.auto ~memory_words:cfg.Sim.Config.memory_words)
      ()
  in
  (m, kmem)

let test_runs_to_completion () =
  let _m, kmem = build () in
  let r = Dlm.Oltp.run ~kmem ~ncpus:2 ~transactions_per_cpu:300 () in
  Alcotest.(check int) "all transactions" 600 r.Dlm.Oltp.transactions;
  Alcotest.(check bool) "some grants" true (r.Dlm.Oltp.grants > 1000);
  Alcotest.(check bool) "cycles advanced" true (r.Dlm.Oltp.cycles > 0)

let test_deterministic () =
  let run () =
    let _m, kmem = build () in
    let r = Dlm.Oltp.run ~kmem ~ncpus:2 ~transactions_per_cpu:200 ~seed:5 () in
    (r.Dlm.Oltp.grants, r.Dlm.Oltp.rejects, r.Dlm.Oltp.cycles)
  in
  Alcotest.(check bool) "identical reruns" true (run () = run ())

let test_produces_layer_traffic () =
  let _m, kmem = build ~ncpus:4 () in
  ignore (Dlm.Oltp.run ~kmem ~ncpus:4 ~transactions_per_cpu:500 ());
  let stats = Kma.Kmem.stats kmem in
  let p = Kma.Kmem.params kmem in
  (* The 512-byte transaction records and the 256-byte messages must
     generate both per-CPU and global-layer activity. *)
  let si512 = Option.get (Kma.Params.size_index_of_bytes p 512) in
  let si256 = Option.get (Kma.Params.size_index_of_bytes p 256) in
  let s512 = Kma.Kstats.size stats si512 in
  let s256 = Kma.Kstats.size stats si256 in
  Alcotest.(check bool) "512B allocs" true (s512.Kma.Kstats.allocs > 1000);
  Alcotest.(check bool) "512B per-CPU misses" true
    (s512.Kma.Kstats.alloc_misses > 0);
  Alcotest.(check bool) "256B cross-CPU frees flush" true
    (s256.Kma.Kstats.free_misses > 0);
  Alcotest.(check bool) "global layer used" true
    (s256.Kma.Kstats.gbl_gets > 0 && s256.Kma.Kstats.gbl_puts > 0)

let test_no_leaks_after_run () =
  let m, kmem = build ~ncpus:2 () in
  ignore (Dlm.Oltp.run ~kmem ~ncpus:2 ~transactions_per_cpu:300 ());
  (* Everything the workload allocated was freed; after draining the
     caches, all physical pages return except the lock-manager table
     (one 4096-byte block, never freed by design). *)
  Sim.Machine.run m
    [|
      (fun _ -> ignore (Kma.Pressure.reap kmem ~full:true));
      (fun _ -> ignore (Kma.Pressure.reap kmem ~full:true));
    |];
  Sim.Machine.run m
    [| (fun _ -> Kma.Kmem.reap_global kmem) |];
  Alcotest.(check int) "only the resource table page remains" 1
    (Kma.Kmem.granted_pages_oracle kmem)

let suite =
  [
    Alcotest.test_case "runs to completion" `Quick test_runs_to_completion;
    Alcotest.test_case "deterministic for a seed" `Quick test_deterministic;
    Alcotest.test_case "produces per-layer traffic" `Quick
      test_produces_layer_traffic;
    Alcotest.test_case "no leaks beyond the table" `Quick
      test_no_leaks_after_run;
  ]
