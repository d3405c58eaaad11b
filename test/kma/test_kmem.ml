open Kma

let test_alloc_free_roundtrip () =
  let m, k = Util.kmem () in
  Util.on_cpu m (fun () ->
      let a = Kmem.alloc k ~bytes:100 in
      Alcotest.(check bool) "allocated" true (a <> 0);
      (* The block is usable memory: scribble over all 128 bytes. *)
      for w = 0 to 31 do
        Sim.Machine.write (a + w) (w * 7)
      done;
      Kmem.free k ~addr:a ~bytes:100)

let test_invalid_sizes () =
  let _, k = Util.kmem () in
  let expect_invalid f =
    match f () with
    | _ -> Alcotest.fail "expected Invalid_argument"
    | exception Invalid_argument _ -> ()
  in
  expect_invalid (fun () -> Kmem.alloc k ~bytes:0);
  expect_invalid (fun () -> Kmem.alloc k ~bytes:(-5));
  expect_invalid (fun () -> Kmem.free k ~addr:64 ~bytes:0)

let test_size_class_routing () =
  let m, k = Util.kmem () in
  Util.on_cpu m (fun () ->
      (* 50 bytes routes to the 64-byte class (index 2). *)
      Alcotest.(check (option int)) "50B -> class 2" (Some 2)
        (Kmem.size_index k ~bytes:50);
      Alcotest.(check (option int)) "4096B -> class 8" (Some 8)
        (Kmem.size_index k ~bytes:4096);
      Alcotest.(check (option int)) "4097B -> large" None
        (Kmem.size_index k ~bytes:4097))

let test_large_requests () =
  let m, k = Util.kmem () in
  Util.on_cpu m (fun () ->
      let a = Kmem.alloc k ~bytes:20000 in
      Alcotest.(check bool) "large allocated" true (a <> 0);
      Kmem.free k ~addr:a ~bytes:20000);
  Alcotest.(check int) "large accounted" 1 (Kmem.stats k).Kstats.large_allocs;
  Alcotest.(check int) "physical returned" 0 (Kmem.granted_pages_oracle k)

(* Experiment E2: the paper's instruction counts.  Warm fast paths:
   cookie interface 13 instructions for alloc and for free; standard
   interface 35 and 32. *)
let test_instruction_counts () =
  let m, k = Util.kmem () in
  let counts = ref [] in
  let measure name f =
    let before = Sim.Machine.retired m ~cpu:0 in
    let r = f () in
    counts := (name, Sim.Machine.retired m ~cpu:0 - before) :: !counts;
    r
  in
  Util.on_cpu m (fun () ->
      let c = Cookie.of_bytes_host k ~bytes:256 in
      (* Warm up: prime the per-CPU cache. *)
      let a = Cookie.alloc k c in
      Cookie.free k c a;
      let a = Cookie.alloc k c in
      Cookie.free k c a;
      let a = measure "cookie alloc" (fun () -> Cookie.alloc k c) in
      measure "cookie free" (fun () -> Cookie.free k c a);
      let a = measure "standard alloc" (fun () -> Kmem.alloc k ~bytes:256) in
      measure "standard free" (fun () -> Kmem.free k ~addr:a ~bytes:256));
  let get name = List.assoc name !counts in
  Alcotest.(check int) "cookie alloc = 13" 13 (get "cookie alloc");
  Alcotest.(check int) "cookie free = 13" 13 (get "cookie free");
  Alcotest.(check int) "standard alloc = 35" 35 (get "standard alloc");
  Alcotest.(check int) "standard free = 32" 32 (get "standard free")

let test_fast_path_needs_no_atomics () =
  let m, k = Util.kmem () in
  Util.on_cpu m (fun () ->
      let c = Cookie.of_bytes_host k ~bytes:128 in
      let a = Cookie.alloc k c in
      Cookie.free k c a;
      let cache = Sim.Machine.cache m in
      let rmws_before = (Sim.Cache.stats cache ~cpu:0).Sim.Cache.rmws in
      for _ = 1 to 50 do
        let a = Cookie.alloc k c in
        Cookie.free k c a
      done;
      let rmws_after = (Sim.Cache.stats cache ~cpu:0).Sim.Cache.rmws in
      Alcotest.(check int) "zero atomic operations on the fast path" 0
        (rmws_after - rmws_before))

let test_try_alloc_exhaustion () =
  (* Tiny physical budget; try_alloc must return None, alloc must
     raise. *)
  let m, k = Util.kmem ~phys_pages:2 () in
  Util.on_cpu m (fun () ->
      let rec fill acc =
        match Kmem.try_alloc k ~bytes:4096 with
        | Some a -> fill (a :: acc)
        | None -> acc
      in
      let live = fill [] in
      Alcotest.(check int) "both pages allocated" 2 (List.length live);
      match Kmem.alloc k ~bytes:4096 with
      | _ -> Alcotest.fail "expected Kmem_exhausted"
      | exception Kmem.Kmem_exhausted -> ())

let test_last_buffer_any_cpu () =
  (* Goal 5: any CPU can allocate the last remaining buffer, even when
     the free memory sits in the global layer after another CPU fed it
     back. *)
  let m, k = Util.kmem ~ncpus:2 ~phys_pages:1 () in
  Sim.Machine.run m
    [|
      (fun _ ->
        (* CPU 0 drains the single page (16 x 256B blocks) then frees
           everything back and drains its cache. *)
        let live = List.init 16 (fun _ -> Kmem.alloc k ~bytes:256) in
        List.iter (fun a -> Kmem.free k ~addr:a ~bytes:256) live;
        for si = 0 to k.Ctx.layout.Layout.nsizes - 1 do
          Percpu.drain k ~si
        done;
        Sim.Machine.write 8 1);
      (fun _ ->
        while Sim.Machine.read 8 = 0 do
          Sim.Machine.spin_pause ()
        done;
        (* CPU 1 must be able to get all 16 blocks. *)
        let live = List.init 16 (fun _ -> Kmem.alloc k ~bytes:256) in
        Alcotest.(check int) "all blocks allocatable from CPU 1" 16
          (List.length (List.filter (fun a -> a <> 0) live)));
    |]

let test_reap_returns_physical () =
  let m, k = Util.kmem () in
  Util.on_cpu m (fun () ->
      let live = List.init 100 (fun _ -> Kmem.alloc k ~bytes:256) in
      List.iter (fun a -> Kmem.free k ~addr:a ~bytes:256) live;
      for si = 0 to k.Ctx.layout.Layout.nsizes - 1 do
        Percpu.drain k ~si
      done;
      Kmem.reap_global k);
  Alcotest.(check int) "all physical pages returned" 0
    (Kmem.granted_pages_oracle k)

(* The worst-case benchmark's correctness core: allocate blocks of one
   size until exhaustion, free them all, then move to the next size.
   An allocator without coalescing would wedge after the first size;
   ours must complete every size with a fresh full arena. *)
let test_worst_case_sweep_completes () =
  let m, k = Util.kmem ~memory_words:65536 () in
  let p = Kmem.params k in
  let counts =
    Util.on_cpu m (fun () ->
        Array.map
          (fun bytes ->
            let rec fill acc =
              match Kmem.try_alloc k ~bytes with
              | Some a -> fill (a :: acc)
              | None -> acc
            in
            let live = fill [] in
            List.iter (fun a -> Kmem.free k ~addr:a ~bytes) live;
            ignore (Pressure.reap k ~full:true);
            List.length live)
          p.Params.sizes_bytes)
  in
  Alcotest.(check int) "fully reusable at the end" 0
    (Kmem.granted_pages_oracle k);
  let ly = k.Ctx.layout in
  let data_pages = Layout.total_data_pages ly in
  Array.iteri
    (fun si n ->
      let bpp = Params.blocks_per_page p si in
      (* Every size must have filled nearly the whole arena: at least
         the page capacity minus what per-CPU caches and the global
         layer can strand. *)
      let slack =
        (2 * p.Params.targets.(si))
        + (2 * p.Params.gbltargets.(si) * p.Params.targets.(si))
      in
      let expected_min = (data_pages * bpp) - slack - bpp in
      if n < expected_min then
        Alcotest.failf "size %d: only %d blocks (expected >= %d)"
          p.Params.sizes_bytes.(si) n expected_min)
    counts

(* Property: random mixed-size traffic never produces overlapping live
   blocks, and every address stays inside the arena. *)
let prop_live_blocks_disjoint =
  let gen =
    QCheck.(
      small_list (pair bool (int_range 1 4096)))
  in
  QCheck.Test.make ~name:"live blocks disjoint, in arena" ~count:40 gen
    (fun ops ->
      let m, k = Util.kmem () in
      let ly = k.Ctx.layout in
      let ok = ref true in
      Util.on_cpu m (fun () ->
          let live = ref [] in
          let p = Kmem.params k in
          List.iter
            (fun (is_alloc, bytes) ->
              if is_alloc then begin
                match Kmem.try_alloc k ~bytes with
                | None -> ()
                | Some a ->
                    let words =
                      match Params.size_index_of_bytes p bytes with
                      | Some si -> Params.size_words p si
                      | None -> assert false
                    in
                    let lo = a and hi = a + words in
                    if
                      lo < ly.Layout.vmblk_base
                      || hi
                         > ly.Layout.vmblk_base
                           + (ly.Layout.arena_vmblks * ly.Layout.vmblk_words)
                    then ok := false;
                    List.iter
                      (fun (lo', hi', _) ->
                        if not (hi <= lo' || hi' <= lo) then ok := false)
                      !live;
                    live := (lo, hi, bytes) :: !live
              end
              else
                match !live with
                | (lo, _, bytes) :: rest ->
                    live := rest;
                    Kmem.free k ~addr:lo ~bytes
                | [] -> ())
            ops);
      !ok)

(* Property: after any traffic, freeing everything and reaping returns
   every physical page. *)
let prop_full_reap =
  QCheck.Test.make ~name:"free-all + reap returns all physical pages"
    ~count:25
    QCheck.(small_list (int_range 1 2048))
    (fun sizes ->
      let m, k = Util.kmem () in
      Util.on_cpu m (fun () ->
          let live =
            List.filter_map
              (fun bytes ->
                Option.map
                  (fun a -> (a, bytes))
                  (Kmem.try_alloc k ~bytes))
              sizes
          in
          List.iter (fun (a, bytes) -> Kmem.free k ~addr:a ~bytes) live;
          ignore (Pressure.reap k ~full:true));
      Kmem.granted_pages_oracle k = 0)

let suite =
  [
    Alcotest.test_case "alloc/free roundtrip" `Quick test_alloc_free_roundtrip;
    Alcotest.test_case "invalid sizes rejected" `Quick test_invalid_sizes;
    Alcotest.test_case "size-class routing" `Quick test_size_class_routing;
    Alcotest.test_case "large requests bypass layers 1-3" `Quick
      test_large_requests;
    Alcotest.test_case "E2: paper instruction counts (13/13, 35/32)" `Quick
      test_instruction_counts;
    Alcotest.test_case "fast path uses no atomics" `Quick
      test_fast_path_needs_no_atomics;
    Alcotest.test_case "exhaustion: try_alloc None, alloc raises" `Quick
      test_try_alloc_exhaustion;
    Alcotest.test_case "goal 5: last buffer from any CPU" `Quick
      test_last_buffer_any_cpu;
    Alcotest.test_case "reap returns physical pages" `Quick
      test_reap_returns_physical;
    Alcotest.test_case "worst-case sweep completes (coalescing)" `Slow
      test_worst_case_sweep_completes;
    QCheck_alcotest.to_alcotest prop_live_blocks_disjoint;
    QCheck_alcotest.to_alcotest prop_full_reap;
  ]
