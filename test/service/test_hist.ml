open Service

(* The log-scale latency histogram: exact below 16 ns, ~9 % resolution
   above, exact maximum in the top bucket, lossless merge. *)

let test_empty () =
  let h = Hist.create () in
  Alcotest.(check int) "count" 0 (Hist.count_oracle h);
  Alcotest.(check bool) "quantile nan" true (Float.is_nan (Hist.p50 h));
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Hist.mean_ns h))

let test_exact_small () =
  let h = Hist.create () in
  for v = 1 to 10 do
    Hist.add h v
  done;
  Alcotest.(check int) "count" 10 (Hist.count_oracle h);
  (* Values below 16 ns land in exact buckets. *)
  Alcotest.(check (float 0.0)) "p50 exact" 5.0 (Hist.p50 h);
  Alcotest.(check int) "max" 10 (Hist.max_ns h)

let test_resolution () =
  let h = Hist.create () in
  Hist.add h 1000;
  let q = Hist.p50 h in
  Alcotest.(check bool)
    (Printf.sprintf "within 9%% of 1000 (got %.0f)" q)
    true
    (Float.abs (q -. 1000.) /. 1000. < 0.09)

let test_top_bucket_exact_max () =
  let h = Hist.create () in
  List.iter (Hist.add h) [ 100; 5_000; 123_456 ];
  Alcotest.(check int) "max" 123_456 (Hist.max_ns h);
  Alcotest.(check (float 0.0)) "p999 is the recorded max" 123_456.0
    (Hist.p999 h)

let test_negative_clamps () =
  let h = Hist.create () in
  Hist.add h (-5);
  Alcotest.(check int) "counted" 1 (Hist.count_oracle h);
  Alcotest.(check int) "as zero" 0 (Hist.max_ns h)

let test_merge () =
  let a = Hist.create () and b = Hist.create () in
  for v = 1 to 8 do
    Hist.add a v
  done;
  List.iter (Hist.add b) [ 2_000; 4_000; 8_000; 16_000 ];
  let into = Hist.create () in
  Hist.merge ~into a;
  Hist.merge ~into b;
  Alcotest.(check int) "count adds" 12 (Hist.count_oracle into);
  Alcotest.(check int) "max survives" 16_000 (Hist.max_ns into);
  (* Rank 6 of 12 is still one of a's exact small samples. *)
  Alcotest.(check (float 0.0)) "p50 from the small side" 6.0 (Hist.p50 into)

let test_quantile_monotone () =
  let h = Hist.create () in
  let rng = Workload.Prng.create ~seed:7 in
  for _ = 1 to 10_000 do
    Hist.add h (Workload.Prng.int rng ~bound:1_000_000)
  done;
  let prev = ref 0.0 in
  List.iter
    (fun (name, v) ->
      if v < !prev then
        Alcotest.failf "quantile not monotone at %s: %f < %f" name v !prev;
      prev := v)
    [
      ("p50", Hist.p50 h);
      ("p99", Hist.p99 h);
      ("p999", Hist.p999 h);
      ("max", float_of_int (Hist.max_ns h));
    ]

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "exact small buckets" `Quick test_exact_small;
    Alcotest.test_case "log resolution" `Quick test_resolution;
    Alcotest.test_case "top bucket exact max" `Quick test_top_bucket_exact_max;
    Alcotest.test_case "negative clamps" `Quick test_negative_clamps;
    Alcotest.test_case "merge" `Quick test_merge;
    Alcotest.test_case "quantile monotone" `Quick test_quantile_monotone;
  ]
