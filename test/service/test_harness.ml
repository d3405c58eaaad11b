open Service

(* The harness's accounting invariants hold for every request shape:
   each run serves exactly the configured requests and returns every
   pooled object it took (allocs = frees after the final drains). *)

let shapes =
  [
    "steady"; "rpc"; "bursty"; "long_tail"; "producer_consumer";
    "frag_adversary"; "recorded_dlm";
  ]

let small ?(domains = 2) ?(requests = 1_500) scenario =
  { (Service.default ~scenario) with Service.domains; requests }

let check_balanced o =
  let s = o.Service.o_stats in
  Alcotest.(check int)
    "allocs = frees" s.Pstats.s_allocs s.Pstats.s_frees;
  Alcotest.(check int)
    "ops = allocs + frees"
    (s.Pstats.s_allocs + s.Pstats.s_frees)
    o.Service.o_ops;
  Alcotest.(check bool) "did work" true (s.Pstats.s_allocs > 0)

let test_all_shapes () =
  List.iter
    (fun scenario ->
      let o = Service.run (small scenario) in
      Alcotest.(check int)
        (scenario ^ ": all requests served")
        3_000 o.Service.o_requests;
      check_balanced o;
      Alcotest.(check int)
        (scenario ^ ": every sample recorded")
        3_000
        (List.fold_left
           (fun a d -> a + d.Service.d_requests)
           0 o.Service.o_per_domain))
    shapes

let test_unknown_scenario () =
  match Service.run (small "no_such_shape") with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_single_domain () =
  (* With one domain there is nobody to send to: the cross-domain
     shapes degenerate to local release and must still balance. *)
  let o = Service.run (small ~domains:1 "producer_consumer") in
  Alcotest.(check int) "served" 1_500 o.Service.o_requests;
  check_balanced o

let test_alloc_count_deterministic () =
  (* Allocation decisions are pure functions of the seed; timing is
     not.  Two runs of the same config take the same pool traffic. *)
  let cfg = small "bursty" in
  let a = Service.run cfg and b = Service.run cfg in
  Alcotest.(check int)
    "same allocs" a.Service.o_stats.Pstats.s_allocs
    b.Service.o_stats.Pstats.s_allocs;
  let c = Service.run { cfg with Service.seed = 43 } in
  Alcotest.(check bool)
    "seed moves the draw" true
    (c.Service.o_stats.Pstats.s_allocs
    <> a.Service.o_stats.Pstats.s_allocs)

let test_open_arrival () =
  let o =
    Service.run
      { (small ~requests:1_000 "steady") with Service.arrival = `Open_ns 200 }
  in
  Alcotest.(check int) "served" 2_000 o.Service.o_requests;
  check_balanced o;
  Alcotest.(check bool)
    "latency measured" true
    (o.Service.o_p50 > 0. && not (Float.is_nan o.Service.o_p999))

let test_adaptive_mode () =
  let o =
    Service.run
      {
        (small ~domains:2 ~requests:20_000 "producer_consumer") with
        Service.mode = `Adaptive;
        target = 4;
        depot_batches = 4;
      }
  in
  check_balanced o;
  (* The level only rises, one step per grow, so the final geometry is
     a function of the grow count: base 4 scaled by 1 + level. *)
  let level = o.Service.o_stats.Pstats.s_grows in
  Alcotest.(check (pair int int))
    "geometry is the level of s_grows"
    (4 * (1 + level), 4 * (1 + level))
    (o.Service.o_final_target, o.Service.o_final_bound);
  Alcotest.(check bool)
    "geometry stayed in range" true
    (o.Service.o_final_target >= 4 && o.Service.o_final_target <= 32)

let test_refill_domain () =
  let o =
    Service.run
      { (small ~requests:2_000 "steady") with Service.refill = true }
  in
  check_balanced o;
  (* The refiller always completes one stocking pass, even if the
     workers finish first. *)
  Alcotest.(check bool) "depot was prefilled" true
    (o.Service.o_stats.Pstats.s_prefills > 0)

let suite =
  [
    Alcotest.test_case "all shapes balance" `Quick test_all_shapes;
    Alcotest.test_case "unknown scenario rejected" `Quick
      test_unknown_scenario;
    Alcotest.test_case "single domain" `Quick test_single_domain;
    Alcotest.test_case "alloc count deterministic" `Quick
      test_alloc_count_deterministic;
    Alcotest.test_case "open arrival" `Quick test_open_arrival;
    Alcotest.test_case "adaptive mode" `Quick test_adaptive_mode;
    Alcotest.test_case "refill domain" `Quick test_refill_domain;
  ]
