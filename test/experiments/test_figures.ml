(* The experiment harness at miniature scale: each paper artifact's
   *shape* criterion, checked in CI.  EXPERIMENTS.md records the
   full-scale numbers. *)

let points =
  (* One small sweep shared by the Figure 7/8 cases. *)
  lazy (Experiments.Fig7.run ~cpus:[ 1; 4 ] ~iters:300 ())

let at which ncpus =
  let points = Lazy.force points in
  match
    List.find_opt
      (fun p ->
        p.Experiments.Fig7.which = which && p.Experiments.Fig7.ncpus = ncpus)
      points
  with
  | Some p -> p.Experiments.Fig7.ops_per_sec
  | None -> Alcotest.fail "missing point"

let test_fig7_new_scales () =
  let open Baseline.Allocator in
  Alcotest.(check bool) "cookie near-linear 1->4" true
    (at Cookie 4 > 3.5 *. at Cookie 1);
  Alcotest.(check bool) "newkma near-linear 1->4" true
    (at Newkma 4 > 3.5 *. at Newkma 1)

let test_fig7_baselines_decline () =
  let open Baseline.Allocator in
  Alcotest.(check bool) "mk declines" true (at Mk 4 < at Mk 1);
  Alcotest.(check bool) "oldkma declines" true (at Oldkma 4 < at Oldkma 1)

let test_fig7_cookie_doubles_newkma () =
  let open Baseline.Allocator in
  let ratio = at Cookie 1 /. at Newkma 1 in
  Alcotest.(check bool)
    (Printf.sprintf "cookie %.2fx newkma (paper ~2x)" ratio)
    true
    (ratio > 1.4 && ratio < 2.6)

let test_fig7_headline_ratio () =
  let open Baseline.Allocator in
  let ratio = at Cookie 1 /. at Oldkma 1 in
  Alcotest.(check bool)
    (Printf.sprintf "cookie %.1fx oldkma at 1 CPU (paper 15x)" ratio)
    true
    (ratio > 10. && ratio < 25.)

let test_fig9_shape () =
  let results =
    Experiments.Fig9.run ~memory_words:(128 * 1024) ()
  in
  Alcotest.(check bool) "completes" true (Experiments.Fig9.completed results);
  Alcotest.(check int) "all nine sizes" 9 (List.length results)

let test_fig9_mk_wedges () =
  let results =
    Experiments.Fig9.run ~which:Baseline.Allocator.Mk
      ~memory_words:(128 * 1024) ()
  in
  Alcotest.(check bool) "mk cannot complete" false
    (Experiments.Fig9.completed results)

let test_opcounts_match_paper () =
  let rows = Experiments.Opcounts.run () in
  let find name =
    List.find (fun r -> r.Experiments.Opcounts.interface = name) rows
  in
  let c = find "cookie macros" in
  Alcotest.(check int) "cookie alloc" 13 c.Experiments.Opcounts.alloc_insns;
  Alcotest.(check int) "cookie free" 13 c.Experiments.Opcounts.free_insns;
  let s = find "standard kmem_alloc" in
  Alcotest.(check int) "standard alloc" 35 s.Experiments.Opcounts.alloc_insns;
  Alcotest.(check int) "standard free" 32 s.Experiments.Opcounts.free_insns

let test_analysis_shape () =
  let profiles = Experiments.Analysis.run ~samples:40 () in
  Alcotest.(check int) "two ops" 2 (List.length profiles);
  List.iter
    (fun p ->
      let open Experiments.Analysis in
      Alcotest.(check bool)
        (p.op ^ ": stalls inflate the fixed sequence")
        true
        (p.mean_cycles > 1.5 *. float_of_int p.fixed_cycles);
      Alcotest.(check bool)
        (p.op ^ ": a minority of accesses dominates stalls")
        true
        (p.worst_share_accesses < 0.4))
    profiles

let test_missrates_within_bounds () =
  let r = Experiments.Missrates.run ~ncpus:2 ~transactions_per_cpu:800 () in
  Alcotest.(check bool) "within analytic bounds" true
    (Experiments.Missrates.within_bounds r);
  Alcotest.(check bool) "some rows measured" true (List.length r.rows >= 2)

let test_speedup_helper () =
  let open Baseline.Allocator in
  let sp = Experiments.Fig7.speedup (Lazy.force points) ~which:Cookie in
  Alcotest.(check int) "two entries" 2 (List.length sp);
  Alcotest.(check bool) "1-CPU speedup is 1" true
    (match List.assoc_opt 1 sp with
    | Some s -> abs_float (s -. 1.) < 1e-9
    | None -> false)

let suite =
  [
    Alcotest.test_case "fig7: new allocator scales" `Slow
      test_fig7_new_scales;
    Alcotest.test_case "fig7: baselines decline" `Slow
      test_fig7_baselines_decline;
    Alcotest.test_case "fig7: cookie ~2x newkma" `Slow
      test_fig7_cookie_doubles_newkma;
    Alcotest.test_case "fig7: headline 15x ratio band" `Slow
      test_fig7_headline_ratio;
    Alcotest.test_case "fig9: new allocator completes" `Slow test_fig9_shape;
    Alcotest.test_case "fig9: mk wedges" `Slow test_fig9_mk_wedges;
    Alcotest.test_case "E2: instruction counts" `Quick
      test_opcounts_match_paper;
    Alcotest.test_case "E1: analysis profile shape" `Slow
      test_analysis_shape;
    Alcotest.test_case "E6: miss rates within bounds" `Slow
      test_missrates_within_bounds;
    Alcotest.test_case "speedup helper" `Slow test_speedup_helper;
  ]
