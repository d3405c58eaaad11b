let machine ?(ncpus = 4) ?(memory_words = 65536) ?(uncached_words = 512) () =
  Sim.Machine.create
    (Sim.Config.make ~ncpus ~memory_words
       ~geometry:{ Sim.Geometry.default with cache_lines = 0 }
       ~uncached_words ())

(* oldkma reads a block's size from its boundary tag, so the size
   [free_sized] takes goes unread. *)
let free o ~addr = Baseline.Oldkma.free_sized o ~addr ~bytes:0

let on_cpu m f =
  let r = ref None in
  Sim.Machine.run m [| (fun _ -> r := Some (f ())) |];
  Option.get !r

let test_roundtrip_and_coalesce () =
  let m = machine () in
  let o = Baseline.Oldkma.create m in
  let initial = Baseline.Oldkma.free_words_oracle o in
  on_cpu m (fun () ->
      let a = Baseline.Oldkma.alloc o ~bytes:100 in
      let b = Baseline.Oldkma.alloc o ~bytes:200 in
      let c = Baseline.Oldkma.alloc o ~bytes:300 in
      Alcotest.(check bool) "all allocated" true (a <> 0 && b <> 0 && c <> 0);
      free o ~addr:a;
      free o ~addr:c;
      free o ~addr:b);
  Alcotest.(check int) "fully coalesced back" initial
    (Baseline.Oldkma.free_words_oracle o)

let test_first_fit_split () =
  let m = machine () in
  let o = Baseline.Oldkma.create m in
  on_cpu m (fun () ->
      let a = Baseline.Oldkma.alloc o ~bytes:64 in
      let b = Baseline.Oldkma.alloc o ~bytes:64 in
      (* Splitting from the front of one big block: consecutive
         addresses. *)
      Alcotest.(check int) "adjacent blocks" (a + 16 + 2) b)

let test_free_middle_then_refit () =
  let m = machine () in
  let o = Baseline.Oldkma.create m in
  on_cpu m (fun () ->
      let a = Baseline.Oldkma.alloc o ~bytes:64 in
      let b = Baseline.Oldkma.alloc o ~bytes:64 in
      let c = Baseline.Oldkma.alloc o ~bytes:64 in
      ignore c;
      free o ~addr:b;
      (* A same-size request first-fits into the hole. *)
      let b' = Baseline.Oldkma.alloc o ~bytes:64 in
      Alcotest.(check int) "hole reused" b b';
      ignore a)

let test_worst_case_sweep_completes () =
  (* Unlike MK, oldkma coalesces: filling with 16-byte blocks, freeing,
     then asking for 4096-byte blocks works. *)
  let m = machine ~memory_words:32768 () in
  let o = Baseline.Oldkma.create m in
  let big = ref 0 in
  on_cpu m (fun () ->
      let rec fill acc =
        let a = Baseline.Oldkma.alloc o ~bytes:16 in
        if a = 0 then acc else fill (a :: acc)
      in
      let small = fill [] in
      Alcotest.(check bool) "arena filled" true (List.length small > 1000);
      List.iter (fun a -> free o ~addr:a) small;
      big := Baseline.Oldkma.alloc o ~bytes:4096);
  Alcotest.(check bool) "large block after coalescing" true (!big <> 0)

let test_is_slow_and_serial () =
  (* Calibration guard: a single-CPU alloc/free pair costs an order of
     magnitude more cycles than the new allocator's cookie path (the
     paper reports 15x; see EXPERIMENTS.md for the measured ratio). *)
  let m = machine () in
  let o = Baseline.Oldkma.create m in
  on_cpu m (fun () ->
      let a = Baseline.Oldkma.alloc o ~bytes:256 in
      free o ~addr:a);
  let t0 = Sim.Machine.elapsed m in
  on_cpu m (fun () ->
      for _ = 1 to 100 do
        let a = Baseline.Oldkma.alloc o ~bytes:256 in
        free o ~addr:a
      done);
  let per_pair = (Sim.Machine.elapsed m - t0) / 100 in
  Alcotest.(check bool)
    (Printf.sprintf "pair costs %d cycles (>= 500)" per_pair)
    true (per_pair >= 500)

let test_multicpu_exclusion () =
  let m = machine ~ncpus:4 () in
  let o = Baseline.Oldkma.create m in
  let per_cpu = 50 in
  let results = Array.make 4 [] in
  Sim.Machine.run_symmetric m ~ncpus:4 (fun cpu ->
      let mine = ref [] in
      for _ = 1 to per_cpu do
        let a = Baseline.Oldkma.alloc o ~bytes:64 in
        assert (a <> 0);
        mine := a :: !mine
      done;
      results.(cpu) <- !mine);
  let all = Array.to_list results |> List.concat in
  Alcotest.(check int) "no block issued twice" (4 * per_cpu)
    (List.length (List.sort_uniq compare all))

let prop_conservation =
  QCheck.Test.make ~name:"oldkma conserves free words" ~count:40
    QCheck.(small_list (int_range 1 2000))
    (fun sizes ->
      let m = machine () in
      let o = Baseline.Oldkma.create m in
      let initial = Baseline.Oldkma.free_words_oracle o in
      on_cpu m (fun () ->
          let live =
            List.filter_map
              (fun bytes ->
                let a = Baseline.Oldkma.alloc o ~bytes in
                if a = 0 then None else Some a)
              sizes
          in
          List.iter (fun a -> free o ~addr:a) live);
      Baseline.Oldkma.free_words_oracle o = initial)

let suite =
  [
    Alcotest.test_case "roundtrip and full coalescing" `Quick
      test_roundtrip_and_coalesce;
    Alcotest.test_case "first-fit splits from the front" `Quick
      test_first_fit_split;
    Alcotest.test_case "freed hole is refit" `Quick
      test_free_middle_then_refit;
    Alcotest.test_case "worst-case sweep completes (coalesces)" `Quick
      test_worst_case_sweep_completes;
    Alcotest.test_case "calibrated slow path" `Quick test_is_slow_and_serial;
    Alcotest.test_case "multi-CPU mutual exclusion" `Quick
      test_multicpu_exclusion;
    QCheck_alcotest.to_alcotest prop_conservation;
  ]
