open Kma

(* Unit tests for the checker proper: a warmed allocator passes clean,
   and each hand-planted corruption trips exactly the rule family that
   owns it.  All corruptions are host-side [Memory.set] pokes — the
   checker must catch them from the memory image alone. *)

let si = 4 (* 256-byte class: target 10, gbltarget 15 *)

let kmem () =
  let m =
    Sim.Machine.create
      (Sim.Config.make ~ncpus:4 ~memory_words:131072 ~cache_lines:0 ())
  in
  let k = Kmem.create m ~params:(Params.make ~vmblk_pages:16 ()) () in
  (m, k)

let on_cpu m f =
  let r = ref None in
  Sim.Machine.run m [| (fun _ -> r := Some (f ())) |];
  match !r with Some v -> v | None -> assert false

(* Allocate [n] blocks of class [si] and free [back] of them: populates
   the per-CPU cache, stocks gblfree via the refill hysteresis, and
   leaves split pages behind.  Returns the ctx and the live count. *)
let warmed ?(n = 25) ?(back = 12) () =
  let m, k = kmem () in
  let ctx : Ctx.t = k in
  on_cpu m (fun () ->
      let blocks = Array.init n (fun _ -> Kmem.alloc_class k ~si) in
      Array.iter (fun a -> assert (a <> 0)) blocks;
      for i = 0 to back - 1 do
        Percpu.free ctx ~si blocks.(i)
      done);
  (ctx, n - back)

let live_counts (ctx : Ctx.t) nlive =
  let a = Array.make ctx.Ctx.layout.Layout.nsizes 0 in
  a.(si) <- nlive;
  a

let rules vs = List.map (fun v -> v.Heapcheck.rule) vs

let check_has rule name vs =
  Alcotest.(check bool)
    (Printf.sprintf "%s trips %s" name (Heapcheck.rule_name rule))
    true
    (List.mem rule (rules vs))

let test_clean_heap () =
  let ctx, nlive = warmed () in
  let vs = Heapcheck.check ~live:(live_counts ctx nlive) ctx in
  Alcotest.(check int)
    (String.concat "; "
       (List.map (fun v -> v.Heapcheck.detail) vs))
    0 (List.length vs)

(* A warmed heap whose first gblfree list claims one block too many. *)
let skewed_gbl_count () =
  let ctx, _ = warmed () in
  let mem = Ctx.memory ctx in
  (match Global.lists_oracle ctx ~si with
  | (head, count) :: _ ->
      Sim.Memory.set mem (head + Freelist.count) (count + 1)
  | [] -> Alcotest.fail "warm-up left gblfree empty");
  ctx

let test_gbl_count () =
  let ctx = skewed_gbl_count () in
  check_has Heapcheck.Gbl_count "count-word skew" (Heapcheck.check ctx)

let test_percpu_count () =
  let ctx, _ = warmed () in
  let mem = Ctx.memory ctx in
  let pcc = Layout.pcc_addr ctx.Ctx.layout ~cpu:0 ~si in
  let c = Sim.Memory.get mem (pcc + Percpu.o_main_cnt) in
  Alcotest.(check bool) "warm-up left main nonempty" true (c > 0);
  Sim.Memory.set mem (pcc + Percpu.o_main_cnt) (c + 1);
  check_has Heapcheck.Percpu_count "main-count skew" (Heapcheck.check ctx)

let test_page_nfree () =
  let ctx, _ = warmed () in
  let mem = Ctx.memory ctx in
  (match Pagepool.bucket_pages_oracle ctx ~si with
  | (_, pd :: _) :: _ ->
      let n = Sim.Memory.get mem (pd + Vmblk.pd_nfree) in
      Sim.Memory.set mem (pd + Vmblk.pd_nfree) (n + 1)
  | _ -> Alcotest.fail "warm-up left no partially-free page");
  check_has Heapcheck.Page_nfree "pd_nfree skew" (Heapcheck.check ctx)

let test_minhint () =
  let ctx, _ = warmed () in
  (* Claim a tighter bound than the lowest occupied bucket allows. *)
  let lowest =
    match Pagepool.bucket_pages_oracle ctx ~si with
    | (nfree, _) :: _ -> nfree
    | [] -> Alcotest.fail "warm-up left no occupied bucket"
  in
  let ly = ctx.Ctx.layout in
  (* minhint is the word after the lock line at pagepool_addr. *)
  let addr = Layout.pagepool_addr ly ~si + ly.Layout.line_words in
  Alcotest.(check int) "minhint word located"
    (Pagepool.minhint_oracle ctx ~si)
    (Sim.Memory.get (Ctx.memory ctx) addr);
  Sim.Memory.set (Ctx.memory ctx) addr (lowest + 1);
  check_has Heapcheck.Minhint "minhint overclaim" (Heapcheck.check ctx)

let test_span_state () =
  let ctx, _ = warmed () in
  let mem = Ctx.memory ctx in
  (match Vmblk.free_spans_oracle ctx with
  | (head_pd, _) :: _ ->
      Sim.Memory.set mem (head_pd + Vmblk.pd_state) Vmblk.st_span_mid
  | [] -> Alcotest.fail "warm-up left no free span");
  check_has Heapcheck.Span_state "orphaned span head" (Heapcheck.check ctx)

let test_dup_block () =
  let ctx, _ = warmed () in
  let mem = Ctx.memory ctx in
  let pcc = Layout.pcc_addr ctx.Ctx.layout ~cpu:0 ~si in
  let h = Sim.Memory.get mem (pcc + Percpu.o_main_head) in
  let c = Sim.Memory.get mem (pcc + Percpu.o_main_cnt) in
  Alcotest.(check bool) "warm-up left main nonempty" true (h <> 0 && c > 0);
  (* Alias the whole main chain as this CPU's aux: every block is now
     on two freelists, with count words that agree with the chains. *)
  Sim.Memory.set mem (pcc + Percpu.o_aux_head) h;
  Sim.Memory.set mem (pcc + Percpu.o_aux_cnt) c;
  check_has Heapcheck.Dup_block "aliased chain" (Heapcheck.check ctx)

let test_conservation_exact () =
  let ctx, nlive = warmed () in
  (* Correct live counts: clean.  Claim one fewer outstanding block and
     the per-class equation must break. *)
  Alcotest.(check int) "exact equation holds" 0
    (List.length (Heapcheck.check ~live:(live_counts ctx nlive) ctx));
  check_has Heapcheck.Conservation "wrong live count"
    (Heapcheck.check ~live:(live_counts ctx (nlive - 1)) ctx)

(* --- lifecycle: the enable/on/note/report idiom --- *)

let with_disabled f = Fun.protect ~finally:Heapcheck.disable f

let test_abort_mode_raises () =
  with_disabled (fun () ->
      Heapcheck.enable ~abort:true ();
      Alcotest.check_raises "note raises in abort mode"
        (Heapcheck.Violation "gbl-count: planted")
        (fun () ->
          Heapcheck.note { Heapcheck.rule = Heapcheck.Gbl_count; detail = "planted" }))

let test_record_mode_accumulates () =
  with_disabled (fun () ->
      Heapcheck.enable ~abort:false ~mode:(Heapcheck.Sweep 64) ();
      Alcotest.(check bool) "on" true (Heapcheck.on ());
      Alcotest.(check bool) "mode readable" true
        (Heapcheck.mode () = Some (Heapcheck.Sweep 64));
      Heapcheck.note { Heapcheck.rule = Heapcheck.Gbl_count; detail = "a" };
      Heapcheck.note { Heapcheck.rule = Heapcheck.Span_state; detail = "b" };
      Alcotest.(check int) "two recorded" 2 (Heapcheck.violation_count ());
      let report = Heapcheck.report () in
      let contains s =
        let n = String.length s and m = String.length report in
        let rec go i = i + n <= m && (String.sub report i n = s || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "report names the rules" true
        (contains "gbl-count" && contains "span-state"))

(* The --heapcheck wrapper kma_bench and bench/main share: a planted
   violation fails the run after the report (both exit 3 on it), and the
   checker is disarmed either way. *)
let test_shared_wrapper_fails () =
  let ctx = skewed_gbl_count () in
  (match
     Harness.with_heapcheck (Some Heapcheck.Paranoid) (fun () ->
         Heapcheck.checkpoint ctx)
   with
  | () -> Alcotest.fail "a planted violation passed the wrapper"
  | exception Harness.Check_failed _ -> ());
  Alcotest.(check bool) "disarmed" false (Heapcheck.on ())

let test_checkpoint_counts () =
  with_disabled (fun () ->
      Heapcheck.enable ~abort:true ();
      let ctx, _ = warmed () in
      Heapcheck.checkpoint ctx;
      Heapcheck.checkpoint ctx;
      Alcotest.(check int) "two checkpoints" 2 (Heapcheck.check_count ());
      Alcotest.(check int) "no violations on a clean heap" 0
        (Heapcheck.violation_count ()));
  Alcotest.(check bool) "disable drops the state" false (Heapcheck.on ())

let test_sweep_zero_rejected () =
  Alcotest.check_raises "Sweep 0 rejected"
    (Invalid_argument "Heapcheck.enable: sweep period < 1")
    (fun () -> Heapcheck.enable ~mode:(Heapcheck.Sweep 0) ())

let suite =
  [
    Alcotest.test_case "warmed heap checks clean" `Quick test_clean_heap;
    Alcotest.test_case "gblfree count skew trips gbl-count" `Quick
      test_gbl_count;
    Alcotest.test_case "per-CPU count skew trips percpu-count" `Quick
      test_percpu_count;
    Alcotest.test_case "pd_nfree skew trips page-nfree" `Quick
      test_page_nfree;
    Alcotest.test_case "minhint overclaim trips minhint" `Quick test_minhint;
    Alcotest.test_case "orphaned span head trips span-state" `Quick
      test_span_state;
    Alcotest.test_case "aliased chain trips dup-block" `Quick test_dup_block;
    Alcotest.test_case "live counts make conservation exact" `Quick
      test_conservation_exact;
    Alcotest.test_case "abort mode raises on first violation" `Quick
      test_abort_mode_raises;
    Alcotest.test_case "record mode accumulates and reports" `Quick
      test_record_mode_accumulates;
    Alcotest.test_case "checkpoints counted, clean heap silent" `Quick
      test_checkpoint_counts;
    Alcotest.test_case "Sweep 0 rejected" `Quick test_sweep_zero_rejected;
    Alcotest.test_case "shared wrapper fails on a planted violation" `Quick
      test_shared_wrapper_fails;
  ]
