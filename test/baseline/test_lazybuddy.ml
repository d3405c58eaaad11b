let machine ?(ncpus = 4) ?(memory_words = 131072) () =
  Sim.Machine.create
    (Sim.Config.make ~ncpus ~memory_words
       ~geometry:{ Sim.Geometry.default with cache_lines = 0 }
       ())

let on_cpu m f =
  let r = ref None in
  Sim.Machine.run m [| (fun _ -> r := Some (f ())) |];
  Option.get !r

let test_roundtrip () =
  let m = machine () in
  let b = Baseline.Lazybuddy.create m in
  on_cpu m (fun () ->
      (* With a healthy working set the class has slack, so a free is
         lazy and the block is reused immediately (LIFO head).  On a
         cold class slack is non-positive and the free coalesces — also
         correct, but not the hot path this test pins down. *)
      let ws = Array.init 8 (fun _ -> Baseline.Lazybuddy.alloc b ~bytes:100) in
      let a = ws.(7) in
      Alcotest.(check bool) "allocated" true (a <> 0);
      Baseline.Lazybuddy.free b ~addr:a ~bytes:100;
      let a2 = Baseline.Lazybuddy.alloc b ~bytes:100 in
      Alcotest.(check int) "hot reuse under slack" a a2;
      Array.iter (fun x -> Baseline.Lazybuddy.free b ~addr:x ~bytes:100) ws)

let test_split_produces_buddies () =
  let m = machine () in
  let b = Baseline.Lazybuddy.create m in
  on_cpu m (fun () ->
      (* First 16-byte allocation splits a 4 KiB chunk all the way
         down: one globally-free buddy appears at every level. *)
      let a = Baseline.Lazybuddy.alloc b ~bytes:16 in
      Alcotest.(check bool) "allocated" true (a <> 0);
      for si = 0 to 7 do
        let _, _, glob = Baseline.Lazybuddy.counters_oracle b ~si in
        Alcotest.(check int)
          (Printf.sprintf "one global buddy at class %d" si)
          1 glob
      done;
      Baseline.Lazybuddy.free b ~addr:a ~bytes:16)

let test_lazy_frees_defer_coalescing () =
  let m = machine () in
  let b = Baseline.Lazybuddy.create m in
  on_cpu m (fun () ->
      (* A working set of 64-byte blocks, then free a few: with healthy
         slack those frees must be lazy (no global-count growth at the
         freed class beyond the split residue). *)
      let blocks =
        Array.init 32 (fun _ -> Baseline.Lazybuddy.alloc b ~bytes:64)
      in
      let _, _, glob_before = Baseline.Lazybuddy.counters_oracle b ~si:2 in
      for i = 0 to 7 do
        Baseline.Lazybuddy.free b ~addr:blocks.(i) ~bytes:64
      done;
      let _, lzy, glob_after = Baseline.Lazybuddy.counters_oracle b ~si:2 in
      Alcotest.(check bool) "some lazy blocks" true (lzy > 0);
      Alcotest.(check int) "no new global blocks" glob_before glob_after;
      for i = 8 to 31 do
        Baseline.Lazybuddy.free b ~addr:blocks.(i) ~bytes:64
      done)

let test_full_free_recoalesces_chunks () =
  let m = machine () in
  let b = Baseline.Lazybuddy.create m in
  let initial = Baseline.Lazybuddy.total_free_words_oracle b in
  on_cpu m (fun () ->
      let blocks =
        Array.init 200 (fun i ->
            Baseline.Lazybuddy.alloc b ~bytes:(16 lsl (i mod 4)))
      in
      Array.iteri
        (fun i a -> Baseline.Lazybuddy.free b ~addr:a ~bytes:(16 lsl (i mod 4)))
        blocks);
  Alcotest.(check int) "all words free again" initial
    (Baseline.Lazybuddy.total_free_words_oracle b);
  (* As usage returns to zero, slack goes negative and coalescing
     reassembles maximal blocks. *)
  Alcotest.(check int) "4 KiB blocks available" 4096
    (Baseline.Lazybuddy.largest_free_oracle b)

let test_worst_case_sweep_completes () =
  (* Unlike MK, the lazy buddy coalesces: the paper's worst-case sweep
     finishes every size. *)
  let m = machine ~memory_words:65536 () in
  let b = Baseline.Lazybuddy.create m in
  on_cpu m (fun () ->
      List.iter
        (fun bytes ->
          let rec fill acc =
            let a = Baseline.Lazybuddy.alloc b ~bytes in
            if a = 0 then acc else fill (a :: acc)
          in
          let live = fill [] in
          Alcotest.(check bool)
            (Printf.sprintf "size %d allocates plenty" bytes)
            true
            (List.length live > 20);
          List.iter
            (fun a -> Baseline.Lazybuddy.free b ~addr:a ~bytes)
            live)
        [ 16; 512; 4096; 32 ])

let test_oversize_rejected () =
  let m = machine () in
  let b = Baseline.Lazybuddy.create m in
  let a = on_cpu m (fun () -> Baseline.Lazybuddy.alloc b ~bytes:8192) in
  Alcotest.(check int) "no class above 4096" 0 a

let test_multicpu_exclusion () =
  let m = machine ~ncpus:4 () in
  let b = Baseline.Lazybuddy.create m in
  let per_cpu = 80 in
  let results = Array.make 4 [] in
  Sim.Machine.run_symmetric m ~ncpus:4 (fun cpu ->
      let mine = ref [] in
      for _ = 1 to per_cpu do
        let a = Baseline.Lazybuddy.alloc b ~bytes:128 in
        assert (a <> 0);
        mine := a :: !mine
      done;
      results.(cpu) <- !mine);
  let all = Array.to_list results |> List.concat in
  Alcotest.(check int) "no block issued twice" (4 * per_cpu)
    (List.length (List.sort_uniq compare all));
  Sim.Machine.run_symmetric m ~ncpus:4 (fun cpu ->
      List.iter
        (fun a -> Baseline.Lazybuddy.free b ~addr:a ~bytes:128)
        results.(cpu))

let prop_disjoint_and_conserving =
  QCheck.Test.make ~name:"lazybuddy blocks disjoint; free-all restores"
    ~count:40
    QCheck.(small_list (pair bool (int_range 1 4096)))
    (fun ops ->
      let m = machine () in
      let b = Baseline.Lazybuddy.create m in
      let initial = Baseline.Lazybuddy.total_free_words_oracle b in
      let ok = ref true in
      on_cpu m (fun () ->
          let live = ref [] in
          let class_words bytes =
            let rec go w = if w * 4 >= bytes then w else go (2 * w) in
            go 4
          in
          List.iter
            (fun (is_alloc, bytes) ->
              if is_alloc then begin
                let a = Baseline.Lazybuddy.alloc b ~bytes in
                if a <> 0 then begin
                  let w = class_words bytes in
                  List.iter
                    (fun (lo, hi, _) ->
                      if not (a + w <= lo || hi <= a) then ok := false)
                    !live;
                  live := (a, a + w, bytes) :: !live
                end
              end
              else
                match !live with
                | (lo, _, bytes) :: rest ->
                    live := rest;
                    Baseline.Lazybuddy.free b ~addr:lo ~bytes
                | [] -> ())
            ops;
          List.iter
            (fun (lo, _, bytes) -> Baseline.Lazybuddy.free b ~addr:lo ~bytes)
            !live);
      !ok && Baseline.Lazybuddy.total_free_words_oracle b = initial)

let suite =
  [
    Alcotest.test_case "roundtrip with hot reuse" `Quick test_roundtrip;
    Alcotest.test_case "split leaves a buddy per level" `Quick
      test_split_produces_buddies;
    Alcotest.test_case "lazy frees defer coalescing" `Quick
      test_lazy_frees_defer_coalescing;
    Alcotest.test_case "free-all recoalesces to chunks" `Quick
      test_full_free_recoalesces_chunks;
    Alcotest.test_case "worst-case sweep completes" `Quick
      test_worst_case_sweep_completes;
    Alcotest.test_case "oversize rejected" `Quick test_oversize_rejected;
    Alcotest.test_case "multi-CPU mutual exclusion" `Quick
      test_multicpu_exclusion;
    QCheck_alcotest.to_alcotest prop_disjoint_and_conserving;
  ]
