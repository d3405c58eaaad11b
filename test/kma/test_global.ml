open Kma

(* Drive the global layer directly.  Size class 4 = 256-byte blocks,
   target 10, gbltarget 15 in the default parameters. *)

let si = 4
let target = 10
let gbltarget = 15

let fixture () = Util.kmem ()

(* Build a target-sized list by pulling blocks from the page layer. *)
let make_list ctx ~n =
  let head, got = Pagepool.get_blocks ctx ~si ~want:n in
  assert (got = n);
  (head, got)

let test_get_refills_from_pagepool () =
  let m, k = fixture () in
  let ctx = Util.ctx_of k in
  let head, count = Util.on_cpu m (fun () -> Global.get_list ctx ~si) in
  Alcotest.(check int) "full list" target count;
  Alcotest.(check bool) "head" true (head <> 0);
  let st = (Kmem.stats k).Kstats.sizes.(si) in
  Alcotest.(check int) "one refill" 1 st.Kstats.gbl_get_misses;
  (* Refill hysteresis: gbltarget lists fetched, one handed out. *)
  Alcotest.(check int) "hysteresis stock" (gbltarget - 1)
    (Global.nlists_oracle ctx ~si)

let test_get_then_gets_are_hits () =
  let m, k = fixture () in
  let ctx = Util.ctx_of k in
  Util.on_cpu m (fun () ->
      for _ = 1 to gbltarget do
        ignore (Global.get_list ctx ~si)
      done);
  let st = (Kmem.stats k).Kstats.sizes.(si) in
  Alcotest.(check int) "gets" gbltarget st.Kstats.gbl_gets;
  Alcotest.(check int) "only one miss" 1 st.Kstats.gbl_get_misses

let test_put_then_get_roundtrip () =
  let m, k = fixture () in
  let ctx = Util.ctx_of k in
  let same =
    Util.on_cpu m (fun () ->
        let head, count = make_list ctx ~n:target in
        Global.put_list ctx ~si ~head ~count;
        let head', count' = Global.get_list ctx ~si in
        head = head' && count = count')
  in
  Alcotest.(check bool) "LIFO list reuse" true same

let test_overflow_drains () =
  let m, k = fixture () in
  let ctx = Util.ctx_of k in
  Util.on_cpu m (fun () ->
      (* Stuff 2*gbltarget lists in: the last put triggers a drain of
         gbltarget lists down to the page layer. *)
      for _ = 1 to 2 * gbltarget do
        let head, count = make_list ctx ~n:target in
        Global.put_list ctx ~si ~head ~count
      done);
  let st = (Kmem.stats k).Kstats.sizes.(si) in
  Alcotest.(check int) "one drain" 1 st.Kstats.gbl_put_misses;
  Alcotest.(check int) "stock back to gbltarget" gbltarget
    (Global.nlists_oracle ctx ~si);
  Alcotest.(check bool) "blocks examined by page layer" true
    (st.Kstats.page_block_puts >= gbltarget * target)

let test_put_partial_regroups () =
  let m, k = fixture () in
  let ctx = Util.ctx_of k in
  Util.on_cpu m (fun () ->
      (* 7 + 7 blocks of odd-sized returns: one full list regroups, 4
         blocks stay on the bucket. *)
      let h1, c1 = make_list ctx ~n:7 in
      Global.put_partial ctx ~si ~head:h1 ~count:c1;
      Alcotest.(check int) "bucketed" 7 (Global.bucket_count_oracle ctx ~si);
      Alcotest.(check int) "no lists yet" 0 (Global.nlists_oracle ctx ~si);
      let h2, c2 = make_list ctx ~n:7 in
      Global.put_partial ctx ~si ~head:h2 ~count:c2);
  Alcotest.(check int) "remainder on bucket" 4
    (Global.bucket_count_oracle ctx ~si);
  Alcotest.(check int) "one regrouped list" 1 (Global.nlists_oracle ctx ~si);
  Alcotest.(check int) "nothing lost" 14 (Global.total_blocks_oracle ctx ~si)

let test_bucket_feeds_get () =
  let m, k = fixture () in
  let ctx = Util.ctx_of k in
  let count =
    Util.on_cpu m (fun () ->
        let h, c = make_list ctx ~n:4 in
        Global.put_partial ctx ~si ~head:h ~count:c;
        snd (Global.get_list ctx ~si))
  in
  (* The bucket's 4 blocks satisfy the get without a refill. *)
  Alcotest.(check int) "short list from bucket" 4 count;
  Alcotest.(check int) "no refill" 0
    (Kmem.stats k).Kstats.sizes.(si).Kstats.gbl_get_misses

let test_drain_all () =
  let m, k = fixture () in
  let ctx = Util.ctx_of k in
  Util.on_cpu m (fun () ->
      for _ = 1 to 3 do
        let head, count = make_list ctx ~n:target in
        Global.put_list ctx ~si ~head ~count
      done;
      let h, c = make_list ctx ~n:5 in
      Global.put_partial ctx ~si ~head:h ~count:c;
      Global.drain_all ctx ~si);
  Alcotest.(check int) "empty" 0 (Global.total_blocks_oracle ctx ~si);
  Alcotest.(check int) "all physical returned" 0
    (Kmem.granted_pages_oracle k)

let test_exhaustion_returns_zero () =
  let m, k = Util.kmem ~phys_pages:1 () in
  let ctx = Util.ctx_of k in
  (* 256B: one page = 16 blocks = one full list of 10 plus 6 on the
     bucket; subsequent gets return short lists and then (0,0). *)
  let counts =
    Util.on_cpu m (fun () ->
        List.init 4 (fun _ -> snd (Global.get_list ctx ~si)))
  in
  Alcotest.(check (list int)) "drains then empty" [ 10; 6; 0; 0 ] counts

(* Property: the miss-rate hysteresis bound — in any mix of puts and
   gets, coalesce-layer interactions are at most 1 per gbltarget
   global-layer operations (plus one warm-up refill). *)
let prop_hysteresis_bound =
  QCheck.Test.make ~name:"global layer miss rate bounded by 1/gbltarget"
    ~count:30
    QCheck.(small_list bool)
    (fun ops ->
      let m, k = fixture () in
      let ctx = Util.ctx_of k in
      Util.on_cpu m (fun () ->
          let held = ref [] in
          let do_op is_get =
            if is_get then begin
              let h, c = Global.get_list ctx ~si in
              if c = target then held := h :: !held
              else if h <> 0 then
                (* Short list: recycle through the bucket. *)
                Global.put_partial ctx ~si ~head:h ~count:c
            end
            else
              match !held with
              | h :: rest ->
                  held := rest;
                  Global.put_list ctx ~si ~head:h ~count:target
              | [] -> ()
          in
          List.iter do_op ops);
      let st = (Kmem.stats k).Kstats.sizes.(si) in
      let interactions = st.Kstats.gbl_get_misses + st.Kstats.gbl_put_misses in
      let ops_count = st.Kstats.gbl_gets + st.Kstats.gbl_puts in
      interactions <= 1 + (ops_count / gbltarget) + 1)

let suite =
  [
    Alcotest.test_case "get refills from page layer" `Quick
      test_get_refills_from_pagepool;
    Alcotest.test_case "refill hysteresis makes later gets hits" `Quick
      test_get_then_gets_are_hits;
    Alcotest.test_case "put/get roundtrip is LIFO" `Quick
      test_put_then_get_roundtrip;
    Alcotest.test_case "overflow drains gbltarget lists" `Quick
      test_overflow_drains;
    Alcotest.test_case "put_partial regroups via bucket" `Quick
      test_put_partial_regroups;
    Alcotest.test_case "bucket feeds gets" `Quick test_bucket_feeds_get;
    Alcotest.test_case "drain_all empties the layer" `Quick test_drain_all;
    Alcotest.test_case "exhaustion hands out the last blocks" `Quick
      test_exhaustion_returns_zero;
    QCheck_alcotest.to_alcotest prop_hysteresis_bound;
  ]
