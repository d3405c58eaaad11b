(* Pathology detection: the target scenarios provably trigger their
   pathology with flight-recorder evidence, best-case traffic stays
   clean, and reports are byte-identical across reruns. *)

let analyze ?which name =
  let s = List.find (fun (s : Scenario.t) -> s.name = name) Scenario.all in
  Scenario.Pathology.analyze ?which ~name
    (s.Scenario.generate ~seed:s.Scenario.default_seed)

let has_pathology (r : Scenario.Pathology.report) p =
  List.exists
    (fun (f : Scenario.Pathology.finding) -> f.Scenario.Pathology.pathology = p)
    r.Scenario.Pathology.findings

let test_steady_clean () =
  let r = analyze "steady" in
  Alcotest.(check int) "no findings" 0
    (List.length r.Scenario.Pathology.findings);
  Alcotest.(check bool) "latency percentiles measured" true
    (r.Scenario.Pathology.alloc_lat.Scenario.Pathology.count > 0)

let test_rpc_clean () =
  let r = analyze "rpc" in
  Alcotest.(check int) "no findings" 0
    (List.length r.Scenario.Pathology.findings)

let test_producer_consumer_convoy () =
  let r = analyze "producer_consumer" in
  Alcotest.(check bool) "lock-convoy detected" true
    (has_pathology r "lock-convoy");
  let f =
    List.find
      (fun (f : Scenario.Pathology.finding) ->
        f.Scenario.Pathology.pathology = "lock-convoy")
      r.Scenario.Pathology.findings
  in
  Alcotest.(check bool) "finding cites flightrec events" true
    (List.exists
       (fun e ->
         (* rendered Event.pp lines start with "[<time>] cpu<n>" *)
         String.length e > 0 && e.[0] = '[')
       f.Scenario.Pathology.evidence)

let test_frag_adversary_fragmentation () =
  let r = analyze "frag_adversary" in
  Alcotest.(check bool) "fragmentation detected" true
    (has_pathology r "fragmentation");
  (* The curve must show the blow-up: some post-warmup sample holding
     at least 4x more page bytes than live bytes. *)
  Alcotest.(check bool) "curve records the blow-up" true
    (List.exists
       (fun (p : Scenario.Pathology.frag_point) ->
         p.Scenario.Pathology.live_bytes > 0
         && p.Scenario.Pathology.held_over_live >= 4.)
       r.Scenario.Pathology.frag_curve)

(* Cookie and numakma are kmem arms too: their samples walk the probe's
   kmem, so the adversary's pinned pages show in their curves. *)
let test_kmem_arms_sampled () =
  List.iter
    (fun which ->
      let r = analyze ~which "frag_adversary" in
      let arm = Baseline.Allocator.name_of which in
      Alcotest.(check bool) (arm ^ " fragmentation detected") true
        (has_pathology r "fragmentation");
      Alcotest.(check bool) (arm ^ " granted pages sampled") true
        (List.exists
           (fun (p : Scenario.Pathology.frag_point) ->
             p.Scenario.Pathology.granted_pages > 0)
           r.Scenario.Pathology.frag_curve))
    Baseline.Allocator.[ Cookie; Numakma ]

(* The baseline arms name their one lock for the flight recorder as
   the kmem arms do theirs, so the convoy finding says whose lock it
   is. *)
let test_baseline_convoy_named () =
  let r = analyze ~which:Baseline.Allocator.Mk "producer_consumer" in
  Alcotest.(check bool) "mk's convoy names its lock" true
    (List.exists
       (fun (f : Scenario.Pathology.finding) ->
         f.Scenario.Pathology.pathology = "lock-convoy"
         && String.starts_with ~prefix:"mk:" f.Scenario.Pathology.detail)
       r.Scenario.Pathology.findings)

(* The drain-oracle line reports a check that ran: bwfixed registers an
   oracle, mk none. *)
let test_drain_oracle_line () =
  let oracle_line which =
    List.exists
      (String.starts_with ~prefix:"probe: drain-oracle")
      (analyze ~which "producer_consumer").Scenario.Pathology.probe
  in
  Alcotest.(check bool) "bwfixed's report has it" true
    (oracle_line Baseline.Allocator.Bwfixed);
  Alcotest.(check bool) "mk's report has none" false
    (oracle_line Baseline.Allocator.Mk)

let test_bursty_latency_tail () =
  let r = analyze "bursty" in
  Alcotest.(check bool) "latency-tail detected" true
    (has_pathology r "latency-tail")

let test_report_byte_identical () =
  let a = Scenario.Pathology.to_string (analyze "producer_consumer") in
  let b = Scenario.Pathology.to_string (analyze "producer_consumer") in
  Alcotest.(check string) "same seed, byte-identical report" a b

let test_windows_validated () =
  match Scenario.Pathology.analyze ~windows:0 ~name:"x" [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "windows=0 accepted"

let suite =
  [
    Alcotest.test_case "steady stays clean" `Quick test_steady_clean;
    Alcotest.test_case "rpc stays clean" `Quick test_rpc_clean;
    Alcotest.test_case "producer_consumer triggers lock-convoy" `Quick
      test_producer_consumer_convoy;
    Alcotest.test_case "frag_adversary triggers fragmentation" `Quick
      test_frag_adversary_fragmentation;
    Alcotest.test_case "cookie and numakma sample granted pages" `Quick
      test_kmem_arms_sampled;
    Alcotest.test_case "mk's lock-convoy names its lock" `Quick
      test_baseline_convoy_named;
    Alcotest.test_case "drain-oracle line only when an oracle ran" `Quick
      test_drain_oracle_line;
    Alcotest.test_case "bursty triggers latency-tail" `Quick
      test_bursty_latency_tail;
    Alcotest.test_case "reports are byte-identical" `Quick
      test_report_byte_identical;
    Alcotest.test_case "windows argument validated" `Quick
      test_windows_validated;
  ]
