(* Workload generators: determinism, completion, and the invariants the
   experiment harness relies on. *)

let test_prng_determinism () =
  let seq seed =
    let r = Workload.Prng.create ~seed in
    List.init 20 (fun _ -> Workload.Prng.int r ~bound:1000)
  in
  Alcotest.(check (list int)) "same seed same stream" (seq 7) (seq 7);
  Alcotest.(check bool) "different seeds differ" true (seq 7 <> seq 8)

let test_prng_bounds () =
  let r = Workload.Prng.create ~seed:1 in
  for _ = 1 to 1000 do
    let v = Workload.Prng.int r ~bound:17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done

let test_prng_split_independent () =
  let a = Workload.Prng.create ~seed:5 in
  let b = Workload.Prng.split a in
  let xs = List.init 10 (fun _ -> Workload.Prng.int a ~bound:1000) in
  let ys = List.init 10 (fun _ -> Workload.Prng.int b ~bound:1000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_prng_weighted () =
  let r = Workload.Prng.create ~seed:2 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 3000 do
    let v = Workload.Prng.weighted r [| (90, `A); (10, `B); (0, `C) |] in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  let get k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  Alcotest.(check int) "zero weight never picked" 0 (get `C);
  Alcotest.(check bool) "ratio respected" true (get `A > 5 * get `B)

let test_bestcase_deterministic () =
  let run () =
    Workload.Bestcase.run ~which:Baseline.Allocator.Cookie ~ncpus:2
      ~iters:200 ~bytes:256 ()
  in
  let a = run () and b = run () in
  Alcotest.(check int) "cycles equal" a.Workload.Bestcase.cycles
    b.Workload.Bestcase.cycles;
  Alcotest.(check int) "pairs" 400 a.Workload.Bestcase.pairs

let test_bestcase_scales () =
  let rate n =
    (Workload.Bestcase.run ~which:Baseline.Allocator.Cookie ~ncpus:n
       ~iters:200 ~bytes:256 ())
      .Workload.Bestcase.pairs_per_sec
  in
  let r1 = rate 1 and r4 = rate 4 in
  Alcotest.(check bool)
    (Printf.sprintf "4 CPUs ~4x of 1 (%.2e vs %.2e)" r4 r1)
    true
    (r4 > 3.5 *. r1 && r4 < 4.5 *. r1)

(* A block the arm cannot serve stops a measured loop with an error
   naming the arm, the block size and the CPU count: the shared cell
   (a cookie block larger than one vmblk) and the producer/consumer
   flow alike. *)
let test_alloc_failure_names_the_cell () =
  let expect name f ~which ~bytes ~ncpus =
    match f () with
    | _ -> Alcotest.failf "%s: expected Alloc_failed" name
    | exception Workload.Rig.Alloc_failed f ->
        Alcotest.(check (triple string int int))
          name
          (Baseline.Allocator.name_of which, bytes, ncpus)
          (Baseline.Allocator.name_of f.which, f.bytes, f.ncpus)
  in
  expect "bestcase"
    (fun () ->
      Workload.Bestcase.run ~which:Baseline.Allocator.Cookie ~ncpus:1
        ~iters:10 ~bytes:3_000_000 ())
    ~which:Baseline.Allocator.Cookie ~bytes:3_000_000 ~ncpus:1;
  expect "crosscpu"
    (fun () ->
      Workload.Crosscpu.run ~which:Baseline.Allocator.Newkma ~pairs:1
        ~blocks_per_pair:4 ~bytes:9_000_000 ())
    ~which:Baseline.Allocator.Newkma ~bytes:9_000_000 ~ncpus:2

(* The one drain check every probed cell runs: a probe whose oracle
   reports a leak fails it, naming the arm and the CPU count; a clean
   one passes. *)
let test_drain_check () =
  let probe drained =
    { Baseline.Allocator.stats = None; drained = Some drained; kmem = None }
  in
  Workload.Rig.check_drained Baseline.Allocator.Nbbuddy ~ncpus:2
    (probe (fun () -> None));
  match
    Workload.Rig.check_drained Baseline.Allocator.Nbbuddy ~ncpus:2
      (probe (fun () -> Some "64 words still allocated"))
  with
  | () -> Alcotest.fail "expected Conservation"
  | exception Workload.Rig.Conservation msg ->
      Alcotest.(check string)
        "message" "nbbuddy at 2 CPUs: 64 words still allocated" msg

let test_worstcase_all_layers () =
  let results =
    Workload.Worstcase.run ~which:Baseline.Allocator.Newkma
      ~config:(Workload.Rig.paper_config ~ncpus:1 ~memory_words:(128 * 1024) ())
      ~sizes:[| 16; 256; 4096 |] ()
  in
  Alcotest.(check int) "three sizes" 3 (List.length results);
  List.iter
    (fun r ->
      let open Workload.Worstcase in
      if r.blocks < 20 then
        Alcotest.failf "size %d wedged with %d blocks" r.bytes r.blocks;
      if r.allocs_per_sec <= 0. || r.frees_per_sec <= 0. then
        Alcotest.failf "size %d has zero rate" r.bytes)
    results

let test_worstcase_throughput_falls_with_size () =
  let results =
    Workload.Worstcase.run ~which:Baseline.Allocator.Newkma
      ~config:(Workload.Rig.paper_config ~ncpus:1 ~memory_words:(128 * 1024) ())
      ~sizes:[| 16; 4096 |] ()
  in
  match results with
  | [ small; big ] ->
      Alcotest.(check bool) "small blocks faster" true
        Workload.Worstcase.(small.pairs_per_sec > big.pairs_per_sec)
  | _ -> Alcotest.fail "expected two results"

let test_cyclic_no_night_failures () =
  let r =
    Workload.Cyclic.run_kmem
      ~config:(Workload.Rig.paper_config ~ncpus:1 ~memory_words:(512 * 1024) ())
      ~days:2 ~day_ops:800 ~night_blocks:20 ()
  in
  Alcotest.(check int) "no night failures" 0 r.Workload.Cyclic.night_failures;
  Alcotest.(check bool) "day work happened" true
    (r.Workload.Cyclic.day_allocs > 300)

let test_crosscpu_completes_all () =
  List.iter
    (fun which ->
      let r = Workload.Crosscpu.run ~which ~pairs:1 ~blocks_per_pair:300 () in
      Alcotest.(check int)
        (Baseline.Allocator.name_of which ^ " transfers")
        300 r.Workload.Crosscpu.transfers)
    Baseline.Allocator.all

let test_crosscpu_rejects_bad_pairs () =
  match
    Workload.Crosscpu.run ~which:Baseline.Allocator.Cookie ~pairs:0
      ~blocks_per_pair:1 ()
  with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng bounds" `Quick test_prng_bounds;
    Alcotest.test_case "prng split independence" `Quick
      test_prng_split_independent;
    Alcotest.test_case "prng weighted choice" `Quick test_prng_weighted;
    Alcotest.test_case "bestcase deterministic" `Quick
      test_bestcase_deterministic;
    Alcotest.test_case "bestcase scales linearly (cookie)" `Quick
      test_bestcase_scales;
    Alcotest.test_case "failed allocation names arm, size and CPUs" `Quick
      test_alloc_failure_names_the_cell;
    Alcotest.test_case "drain check fails on a leak" `Quick test_drain_check;
    Alcotest.test_case "worstcase completes every size" `Quick
      test_worstcase_all_layers;
    Alcotest.test_case "worstcase slows with block size" `Quick
      test_worstcase_throughput_falls_with_size;
    Alcotest.test_case "cyclic nights never fail" `Quick
      test_cyclic_no_night_failures;
    Alcotest.test_case "crosscpu completes on all allocators" `Quick
      test_crosscpu_completes_all;
    Alcotest.test_case "crosscpu validates pairs" `Quick
      test_crosscpu_rejects_bad_pairs;
  ]
