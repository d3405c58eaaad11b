(* Determinism self-test on tiny configurations of every workload:
   the generated traces are well-formed, the simulated side is a pure
   function of the seed (and tracing it costs zero simulated cycles),
   the single-domain native side repeats its counts exactly for a fixed
   number of bursts, and a whole run reports every metric with nothing
   failed. *)

open Perfbench

let tiny w ~seed = Inputs.sim ~scale:0.05 w ~seed

let sim_case w =
  Alcotest.test_case (Inputs.name w) `Quick (fun () ->
      let s = tiny w ~seed:1 in
      List.iter
        (fun t ->
          match Workload.Trace.validate t with
          | Ok () -> ()
          | Error e -> Alcotest.failf "malformed trace: %s" e)
        [ s.warm; s.trace ];
      let a = Simside.rep s in
      let b = Simside.rep (tiny w ~seed:1) in
      let c = Simside.rep (tiny w ~seed:2) in
      let t = Simside.rep ~trace:true (tiny w ~seed:1) in
      List.iter
        (fun (r : Simside.rep) -> Alcotest.(check int) "failed" 0 r.failed)
        [ a; b; c; t ];
      Alcotest.(check bool) "same seed, same replay" true
        (Simside.signature a = Simside.signature b);
      Alcotest.(check bool) "traced replay identical" true
        (Simside.signature a = Simside.signature t);
      Alcotest.(check bool) "another seed, another replay" false
        (Simside.signature a = Simside.signature c);
      let simulated (r : Simside.rep) =
        List.filter
          (fun (n, _, _) -> n <> "sim_maccess_per_host_s")
          (Simside.end_to_end r ~host_s:r.host_s)
      in
      Alcotest.(check (list (triple string string (float 0.))))
        "simulated metrics bit-identical" (simulated a) (simulated b);
      match t.spans with
      | None -> Alcotest.fail "traced replay kept no spans"
      | Some sp -> Alcotest.(check int) "one span per call" t.ops sp.n)

let burst_counts () =
  let inp = Inputs.native Inputs.Burst ~seed:1 in
  let run inp =
    let r = Nativeside.round inp ~window_s:60. ~limit:200 ~traced:false in
    Alcotest.(check int) "bad" 0 r.bad;
    r
  in
  let a = run inp and b = run inp in
  let c = run (Inputs.native Inputs.Burst ~seed:2) in
  let counts (r : Nativeside.round) =
    (r.stats.s_allocs, r.stats.s_creates, r.stats.s_drops, Nativeside.minor_words_per_op r)
  in
  let show (al, cr, dr, w) = Printf.sprintf "allocs=%d creates=%d drops=%d words/op=%.17g" al cr dr w in
  Alcotest.(check string) "same seed, same counts" (show (counts a)) (show (counts b));
  Alcotest.(check bool) "another seed, other counts" false (counts a = counts c)

let names metrics = List.sort compare (List.map (fun (n, _, _) -> n) metrics)

let end_to_end =
  [
    "native_minor_words_per_op"; "native_ops_per_s"; "native_req_p50_ns";
    "native_req_p99_ns"; "setup_s"; "sim_maccess_per_host_s"; "sim_op_p50_cycles";
    "sim_op_p999_cycles"; "sim_op_p99_cycles"; "sim_ops_per_s";
  ]

let run_case w =
  Alcotest.test_case (Inputs.name w) `Quick (fun () ->
      let r = Bench.run ~scale:0.05 w ~seed:3 ~seconds:0.3 ~trace:false in
      Alcotest.(check int) "failed" 0 r.failed;
      Alcotest.(check (list string)) "end-to-end metrics" end_to_end (names r.metrics);
      List.iter
        (fun (n, _, v) ->
          if not (Float.is_finite v && v > 0.) then Alcotest.failf "%s = %g" n v)
        r.metrics;
      let t = Bench.run ~scale:0.05 w ~seed:3 ~seconds:0.3 ~trace:true in
      Alcotest.(check int) "traced failed" 0 t.failed;
      Alcotest.(check int) "per-layer metrics" 51 (List.length (names t.metrics));
      List.iter
        (fun (n, _, v) -> if not (Float.is_finite v) then Alcotest.failf "%s = %g" n v)
        t.metrics)

let () =
  Alcotest.run "perfbench"
    [
      ("simulated determinism", List.map sim_case Inputs.all);
      ("native counts", [ Alcotest.test_case "burst" `Quick burst_counts ]);
      ("whole run", List.map run_case Inputs.all);
    ]
