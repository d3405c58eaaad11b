open Kma

(* The vmblk layer is driven directly here (no upper layers), using the
   full Kmem boot for the context.  Small config: 16-page vmblks with a
   1-page descriptor header, so 15 data pages per vmblk. *)

let fixture () = Util.kmem ()

let test_alloc_one_page () =
  let m, k = fixture () in
  let ctx = Util.ctx_of k in
  let page = Util.on_cpu m (fun () -> Vmblk.alloc_pages ctx ~npages:1) in
  Alcotest.(check bool) "page allocated" true (page <> 0);
  Alcotest.(check int) "page aligned" 0
    (page mod k.Ctx.layout.Layout.page_words);
  Alcotest.(check int) "one physical page" 1 (Kmem.granted_pages_oracle k);
  Alcotest.(check int) "one vmblk grown" 1 (Vmblk.nvmblks_oracle ctx);
  Alcotest.(check (list int)) "remainder span" [ 14 ]
    (Vmblk.free_span_lengths_oracle ctx)

let test_free_restores_span () =
  let m, k = fixture () in
  let ctx = Util.ctx_of k in
  Util.on_cpu m (fun () ->
      let p = Vmblk.alloc_pages ctx ~npages:3 in
      Vmblk.free_pages ctx ~page:p ~npages:3);
  Alcotest.(check (list int)) "coalesced back to full vmblk" [ 15 ]
    (Vmblk.free_span_lengths_oracle ctx);
  Alcotest.(check int) "physical returned" 0 (Kmem.granted_pages_oracle k)

let test_coalesce_middle () =
  let m, k = fixture () in
  let ctx = Util.ctx_of k in
  (* Allocate three adjacent spans; free outer two, then the middle:
     everything must merge into one span again. *)
  Util.on_cpu m (fun () ->
      let a = Vmblk.alloc_pages ctx ~npages:2 in
      let b = Vmblk.alloc_pages ctx ~npages:3 in
      let c = Vmblk.alloc_pages ctx ~npages:4 in
      Vmblk.free_pages ctx ~page:a ~npages:2;
      Vmblk.free_pages ctx ~page:c ~npages:4;
      (* c coalesces with the trailing remainder: [a:2] and [c+rest:10]. *)
      Alcotest.(check (list int))
        "two spans while fragmented" [ 2; 10 ]
        (List.sort compare (Vmblk.free_span_lengths_oracle ctx));
      Vmblk.free_pages ctx ~page:b ~npages:3);
  Alcotest.(check (list int)) "single full span" [ 15 ]
    (Vmblk.free_span_lengths_oracle ctx)

let test_first_fit_reuses_address () =
  let m, k = fixture () in
  let ctx = Util.ctx_of k in
  let a1, a2 =
    Util.on_cpu m (fun () ->
        let a = Vmblk.alloc_pages ctx ~npages:2 in
        Vmblk.free_pages ctx ~page:a ~npages:2;
        let a' = Vmblk.alloc_pages ctx ~npages:2 in
        (a, a'))
  in
  Alcotest.(check int) "address reused after coalesce" a1 a2

let test_grow_second_vmblk () =
  let m, k = fixture () in
  let ctx = Util.ctx_of k in
  (* 15 data pages per vmblk: a 15-page and then a 10-page allocation
     forces a second vmblk. *)
  Util.on_cpu m (fun () ->
      let a = Vmblk.alloc_pages ctx ~npages:15 in
      let b = Vmblk.alloc_pages ctx ~npages:10 in
      Alcotest.(check bool) "both allocated" true (a <> 0 && b <> 0));
  Alcotest.(check int) "two vmblks" 2 (Vmblk.nvmblks_oracle ctx)

let test_oversize_rejected () =
  let m, k = fixture () in
  let ctx = Util.ctx_of k in
  let a = Util.on_cpu m (fun () -> Vmblk.alloc_pages ctx ~npages:16) in
  Alcotest.(check int) "larger than a vmblk's data" 0 a

let test_virtual_exhaustion () =
  let m, k = fixture () in
  let ctx = Util.ctx_of k in
  let ly = k.Ctx.layout in
  let total = Layout.total_data_pages ly in
  let count =
    Util.on_cpu m (fun () ->
        let rec go n =
          if Vmblk.alloc_pages ctx ~npages:1 = 0 then n else go (n + 1)
        in
        go 0)
  in
  Alcotest.(check int) "every data page allocatable" total count

let test_physical_exhaustion_unwinds () =
  (* Physical budget of 4 pages: a 3-page span succeeds, the next 3-page
     span fails cleanly and releases any partial grants. *)
  let m, k = Util.kmem ~phys_pages:4 () in
  let ctx = Util.ctx_of k in
  Util.on_cpu m (fun () ->
      let a = Vmblk.alloc_pages ctx ~npages:3 in
      Alcotest.(check bool) "first fits" true (a <> 0);
      let b = Vmblk.alloc_pages ctx ~npages:3 in
      Alcotest.(check int) "second fails" 0 b);
  Alcotest.(check int) "no leaked grants" 3 (Kmem.granted_pages_oracle k)

let test_large_alloc_free () =
  let m, k = fixture () in
  let ctx = Util.ctx_of k in
  Util.on_cpu m (fun () ->
      let a = Vmblk.alloc_large ctx ~bytes:10000 in
      Alcotest.(check bool) "large allocated" true (a <> 0);
      (* 10000 bytes = 3 pages *)
      Vmblk.free_large ctx ~addr:a ~bytes:10000);
  Alcotest.(check int) "physical returned" 0 (Kmem.granted_pages_oracle k);
  Alcotest.(check int) "stats" 1 (Kmem.stats k).Kstats.large_allocs;
  Alcotest.(check int) "stats free" 1 (Kmem.stats k).Kstats.large_frees

let test_free_large_checks_the_size () =
  let m, k = fixture () in
  let ctx = Util.ctx_of k in
  match
    Util.on_cpu m (fun () ->
        let a = Vmblk.alloc_large ctx ~bytes:10000 in
        (* 3 pages allocated, 5 freed *)
        Vmblk.free_large ctx ~addr:a ~bytes:20000)
  with
  | () -> Alcotest.fail "a wrong-size free_large passed its check"
  | exception Assert_failure (file, _, _) ->
      Alcotest.(check string) "free_large's check" "lib/kma/vmblk.ml" file

let test_pd_of_block_lookup () =
  let m, k = fixture () in
  let ctx = Util.ctx_of k in
  let ly = k.Ctx.layout in
  Util.on_cpu m (fun () ->
      let page = Vmblk.alloc_pages ctx ~npages:1 in
      let pd = Vmblk.pd_of_block ctx (page + 37) in
      Alcotest.(check int) "descriptor matches page"
        (Layout.pd_of_page ly ~page_addr:page)
        pd;
      Alcotest.(check int) "state allocated" Vmblk.st_span_alloc
        (Sim.Machine.read (pd + Vmblk.pd_state)))

(* Every free span must read as a legal boundary-tag encoding:
   st_free_head at the head, st_free_tail at the tail (spans of 2+),
   st_free_mid everywhere in between.  A stale st_span_mid interior is
   the latent descriptor bug the two regression tests below pin. *)
let free_span_states_legal ctx =
  let mem = Ctx.memory ctx in
  let ly = ctx.Ctx.layout in
  let pdw = ly.Layout.pd_words in
  List.for_all
    (fun (pd, len) ->
      let st i = Sim.Memory.get mem (pd + (i * pdw) + Vmblk.pd_state) in
      st 0 = Vmblk.st_free_head
      && (len = 1 || st (len - 1) = Vmblk.st_free_tail)
      &&
      let ok = ref true in
      for i = 1 to len - 2 do
        if st i <> Vmblk.st_free_mid then ok := false
      done;
      !ok)
    (Vmblk.free_spans_oracle ctx)

(* Regression: the grant-failure undo in [alloc_pages] used to leave
   the interior descriptors that [mark_allocated_span] had put in
   [st_span_mid], handing a corrupt encoding back to the free list. *)
let test_grant_failure_undo_resets_interiors () =
  let m, k = fixture () in
  let ctx = Util.ctx_of k in
  let vmsys = Kmem.vmsys k in
  Util.on_cpu m (fun () ->
      let a = Vmblk.alloc_pages ctx ~npages:3 in
      Alcotest.(check bool) "warm alloc fits" true (a <> 0);
      (* Deny every further grant: a 4-page carve must undo itself. *)
      Sim.Vmsys.set_fault_rate vmsys ~seed:1 1.0;
      let b = Vmblk.alloc_pages ctx ~npages:4 in
      Alcotest.(check int) "alloc fails under denial" 0 b;
      Sim.Vmsys.set_fault_rate vmsys ~seed:1 0.0;
      Vmblk.free_pages ctx ~page:a ~npages:3);
  Alcotest.(check bool) "free spans form a legal boundary-tag tiling" true
    (free_span_states_legal ctx);
  Alcotest.(check (list int)) "fully coalesced" [ 15 ]
    (Vmblk.free_span_lengths_oracle ctx)

(* Regression: [free_pages] (the ordinary span free) had the same
   latent bug — interiors stayed [st_span_mid] inside the freed span.
   Found by the lib/heapcheck fuzzer (2-op reproducer: alloc-large,
   free-large). *)
let test_free_pages_resets_interiors () =
  let m, k = fixture () in
  let ctx = Util.ctx_of k in
  Util.on_cpu m (fun () ->
      let a = Vmblk.alloc_pages ctx ~npages:4 in
      Alcotest.(check bool) "span allocated" true (a <> 0);
      Vmblk.free_pages ctx ~page:a ~npages:4);
  Alcotest.(check bool) "free spans form a legal boundary-tag tiling" true
    (free_span_states_legal ctx)

(* Property: any sequence of span allocs and frees keeps spans disjoint
   and conserves pages; freeing everything restores one full span per
   touched vmblk. *)
let prop_span_conservation =
  let gen = QCheck.(small_list (int_range 1 5)) in
  QCheck.Test.make ~name:"span alloc/free conserves pages" ~count:60 gen
    (fun sizes ->
      let m, k = fixture () in
      let ctx = Util.ctx_of k in
      let ok = ref true in
      Util.on_cpu m (fun () ->
          let live =
            List.filter_map
              (fun n ->
                let a = Vmblk.alloc_pages ctx ~npages:n in
                if a = 0 then None else Some (a, n))
              sizes
          in
          (* Spans must be pairwise disjoint. *)
          let ly = k.Ctx.layout in
          let ranges =
            List.map
              (fun (a, n) -> (a, a + (n * ly.Layout.page_words)))
              live
          in
          List.iteri
            (fun i (lo1, hi1) ->
              List.iteri
                (fun j (lo2, hi2) ->
                  if i < j && not (hi1 <= lo2 || hi2 <= lo1) then ok := false)
                ranges)
            ranges;
          List.iter (fun (a, n) -> Vmblk.free_pages ctx ~page:a ~npages:n) live);
      !ok
      && Kmem.granted_pages_oracle k = 0
      && List.for_all
           (fun len -> len = 15)
           (Vmblk.free_span_lengths_oracle ctx))

let suite =
  [
    Alcotest.test_case "alloc one page" `Quick test_alloc_one_page;
    Alcotest.test_case "free restores full span" `Quick
      test_free_restores_span;
    Alcotest.test_case "middle free coalesces both sides" `Quick
      test_coalesce_middle;
    Alcotest.test_case "first-fit reuses addresses" `Quick
      test_first_fit_reuses_address;
    Alcotest.test_case "grows a second vmblk" `Quick test_grow_second_vmblk;
    Alcotest.test_case "oversize span rejected" `Quick test_oversize_rejected;
    Alcotest.test_case "virtual arena fully allocatable" `Quick
      test_virtual_exhaustion;
    Alcotest.test_case "physical exhaustion unwinds grants" `Quick
      test_physical_exhaustion_unwinds;
    Alcotest.test_case "large alloc/free via byte interface" `Quick
      test_large_alloc_free;
    Alcotest.test_case "free_large checks the span size" `Quick
      test_free_large_checks_the_size;
    Alcotest.test_case "pd_of_block dope lookup" `Quick
      test_pd_of_block_lookup;
    Alcotest.test_case "grant-failure undo resets interior descriptors"
      `Quick test_grant_failure_undo_resets_interiors;
    Alcotest.test_case "free_pages resets interior descriptors" `Quick
      test_free_pages_resets_interiors;
    QCheck_alcotest.to_alcotest prop_span_conservation;
  ]
