open Kma

(* Drive the coalesce-to-page layer directly.  Size class 4 is 256-byte
   blocks: 16 blocks per page in the default configuration. *)

let si = 4
let bpp = 16

let fixture () = Util.kmem ()

(* Return one block to its page, as a one-block chain. *)
let put_block ctx blk =
  Sim.Machine.write (blk + Freelist.link) 0;
  Pagepool.put_blocks ctx ~si ~head:blk ~count:1

let collect_chain mem head =
  let rec go a acc =
    if a = 0 then List.rev acc
    else go (Sim.Memory.get mem (a + Freelist.link)) (a :: acc)
  in
  go head []

let test_get_splits_fresh_page () =
  let m, k = fixture () in
  let ctx = Util.ctx_of k in
  let head, got = Util.on_cpu m (fun () -> Pagepool.get_blocks ctx ~si ~want:4) in
  Alcotest.(check int) "got 4" 4 got;
  Alcotest.(check bool) "chain nonempty" true (head <> 0);
  Alcotest.(check int) "one page grabbed" 1
    (Kmem.stats k).Kstats.sizes.(si).Kstats.pages_grabbed;
  (* 16 - 4 = 12 blocks remain free in the page. *)
  Alcotest.(check int) "free blocks" 12 (Pagepool.free_blocks_oracle ctx ~si)

let test_blocks_disjoint_and_sized () =
  let m, k = fixture () in
  let ctx = Util.ctx_of k in
  let head, got =
    Util.on_cpu m (fun () -> Pagepool.get_blocks ctx ~si ~want:bpp)
  in
  Alcotest.(check int) "full page" bpp got;
  let blocks = collect_chain (Sim.Machine.memory m) head in
  let sorted = List.sort compare blocks in
  let words = Params.size_words (Kmem.params k) si in
  List.iteri
    (fun i a ->
      if i > 0 then
        Alcotest.(check int) "spacing" words (a - List.nth sorted (i - 1)))
    sorted;
  Alcotest.(check int) "unique" bpp (List.length (List.sort_uniq compare blocks))

let test_put_returns_full_page () =
  let m, k = fixture () in
  let ctx = Util.ctx_of k in
  Util.on_cpu m (fun () ->
      let head, got = Pagepool.get_blocks ctx ~si ~want:bpp in
      Alcotest.(check int) "full page out" bpp got;
      Pagepool.put_blocks ctx ~si ~head ~count:got);
  Alcotest.(check int) "page returned to VM" 0 (Kmem.granted_pages_oracle k);
  Alcotest.(check int) "pages_returned" 1
    (Kmem.stats k).Kstats.sizes.(si).Kstats.pages_returned;
  Alcotest.(check (list (pair int (list int)))) "no buckets" []
    (Pagepool.bucket_pages_oracle ctx ~si)

let test_radix_prefers_fullest () =
  let m, k = fixture () in
  let ctx = Util.ctx_of k in
  Util.on_cpu m (fun () ->
      (* Create two partially-free pages: page A with 2 free blocks,
         page B with 10 free blocks. *)
      let a_head, _ = Pagepool.get_blocks ctx ~si ~want:bpp in
      let b_head, _ = Pagepool.get_blocks ctx ~si ~want:bpp in
      let a_blocks = ref [] and b_blocks = ref [] in
      Freelist.iter_chain a_head (fun blk ~next:_ -> a_blocks := blk :: !a_blocks);
      Freelist.iter_chain b_head (fun blk ~next:_ -> b_blocks := blk :: !b_blocks);
      let free_back blocks n =
        List.iteri
          (fun i blk -> if i < n then put_block ctx blk)
          blocks
      in
      free_back !a_blocks 2;
      free_back !b_blocks 10;
      (* The next carve must come from page A (fewest free blocks). *)
      let head, got = Pagepool.get_blocks ctx ~si ~want:2 in
      Alcotest.(check int) "got 2" 2 got;
      let page_of blk = blk land lnot (k.Ctx.layout.Layout.page_words - 1) in
      let a_page = page_of (List.hd !a_blocks) in
      Freelist.iter_chain head (fun blk ~next:_ ->
          Alcotest.(check int) "carved from fullest page" a_page (page_of blk)))

let test_bucket_migration () =
  let m, k = fixture () in
  let ctx = Util.ctx_of k in
  Util.on_cpu m (fun () ->
      let head, _ = Pagepool.get_blocks ctx ~si ~want:bpp in
      (* Free three blocks one at a time: the page's descriptor should
         march through buckets 1, 2, 3. *)
      let blocks = ref [] in
      Freelist.iter_chain head (fun blk ~next:_ -> blocks := blk :: !blocks);
      match !blocks with
      | b1 :: b2 :: b3 :: _ ->
          put_block ctx b1;
          Alcotest.(check (list (pair int int)))
            "bucket 1"
            [ (1, 1) ]
            (List.map
               (fun (n, ps) -> (n, List.length ps))
               (Pagepool.bucket_pages_oracle ctx ~si));
          put_block ctx b2;
          put_block ctx b3;
          Alcotest.(check (list (pair int int)))
            "bucket 3"
            [ (3, 1) ]
            (List.map
               (fun (n, ps) -> (n, List.length ps))
               (Pagepool.bucket_pages_oracle ctx ~si))
      | _ -> Alcotest.fail "expected blocks")

let test_exhaustion_returns_short () =
  (* Physical budget of 1 page: a request for two pages' worth of blocks
     comes back short, not wedged. *)
  let m, k = Util.kmem ~phys_pages:1 () in
  let ctx = Util.ctx_of k in
  let _, got =
    Util.on_cpu m (fun () -> Pagepool.get_blocks ctx ~si ~want:(2 * bpp))
  in
  Alcotest.(check int) "one page's worth" bpp got

let prop_conservation =
  (* Random get/put traffic conserves blocks: what was taken and put
     back always reappears in the oracles; full pages leave the pool. *)
  QCheck.Test.make ~name:"pagepool conserves blocks" ~count:50
    QCheck.(small_list (int_range 1 24))
    (fun wants ->
      let m, k = fixture () in
      let ctx = Util.ctx_of k in
      let balanced = ref true in
      Util.on_cpu m (fun () ->
          let live = ref [] in
          List.iter
            (fun want ->
              let head, got = Pagepool.get_blocks ctx ~si ~want in
              Freelist.iter_chain head (fun blk ~next:_ ->
                  live := blk :: !live);
              if got > want then balanced := false)
            wants;
          (* Put everything back. *)
          List.iter (fun blk -> put_block ctx blk) !live);
      !balanced
      && Kmem.granted_pages_oracle k = 0
      && Pagepool.free_blocks_oracle ctx ~si = 0)

let suite =
  [
    Alcotest.test_case "get splits a fresh page" `Quick
      test_get_splits_fresh_page;
    Alcotest.test_case "carved blocks disjoint and spaced" `Quick
      test_blocks_disjoint_and_sized;
    Alcotest.test_case "fully-freed page returns to VM" `Quick
      test_put_returns_full_page;
    Alcotest.test_case "radix order prefers fullest page" `Quick
      test_radix_prefers_fullest;
    Alcotest.test_case "descriptor migrates across buckets" `Quick
      test_bucket_migration;
    Alcotest.test_case "physical exhaustion returns short" `Quick
      test_exhaustion_returns_short;
    QCheck_alcotest.to_alcotest prop_conservation;
  ]
