(* The differential fuzzer: determinism, the full config matrix at
   moderate depth, the ISSUE's acceptance run (10k ops with pressure
   and fault injection live), the corruption self-test (every planted
   corruption kind is caught), and trace minimization. *)

module Fuzz = Heapcheck.Fuzz

(* Replay the config's own seeded trace. *)
let fuzz cfg = Fuzz.execute cfg (Fuzz.gen cfg)

let no_failure name (o : Fuzz.outcome) =
  (match o.Fuzz.failure with
  | None -> ()
  | Some f ->
      Alcotest.failf "%s: check failed after op %d (%s): %s" name f.Fuzz.index
        (Format.asprintf "%a" Fuzz.pp_op f.Fuzz.op)
        (String.concat "; " f.Fuzz.problems));
  Alcotest.(check bool)
    (Printf.sprintf "%s did real work (%d allocs, %d checks)" name o.Fuzz.allocs
       o.Fuzz.checks)
    true
    (o.Fuzz.allocs > 0 && o.Fuzz.checks > 0)

(* One paranoid run per corner of the pressure x debug matrix. *)
let test_matrix () =
  List.iter
    (fun (pressure, debug, seed) ->
      let name =
        Printf.sprintf "pressure:%b debug:%b seed:%d" pressure debug seed
      in
      no_failure name
        (fuzz (Fuzz.config ~ops:1500 ~pressure ~debug ~seed ())))
    [ (false, false, 1); (true, false, 2); (false, true, 3); (true, true, 4) ]

(* The acceptance run: 10k ops, pressure subsystem live, VM fault
   injection armed, multiple CPUs laid out (the trace runs on CPU 0 but
   the full per-CPU structure is walked by every check). *)
let test_acceptance_10k () =
  no_failure "10k pressure+faults"
    (fuzz
       (Fuzz.config ~ops:10_000 ~pressure:true ~fault_rate:0.2 ~ncpus:2
          ~seed:11 ()))

(* Sweep mode covers the same ground with cheaper checking. *)
let test_sweep_mode () =
  let o =
    fuzz
      (Fuzz.config ~ops:4000 ~check_every:64 ~pressure:true ~fault_rate:0.3
         ~seed:12 ())
  in
  no_failure "sweep 64" o;
  Alcotest.(check bool) "sweep checks are sparse" true
    (o.Fuzz.checks <= (4000 / 64) + 2)

let test_gen_deterministic () =
  let cfg = Fuzz.config ~ops:2000 ~pressure:true ~fault_rate:0.1 ~seed:7 () in
  Alcotest.(check bool) "same config, same trace" true
    (Fuzz.gen cfg = Fuzz.gen cfg);
  let a = fuzz cfg and b = fuzz cfg in
  Alcotest.(check bool) "same config, same outcome" true (a = b)

(* Self-test: each planted corruption kind must be caught by the very
   next check.  The warm-up prefix builds enough structure (split
   pages, stocked gblfree, live per-CPU chains) for every kind to have
   a target to smash. *)
let test_corrupt_kinds_caught () =
  let cfg = Fuzz.config ~ops:300 ~seed:5 () in
  let prefix = Fuzz.gen cfg in
  List.iter
    (fun kind ->
      let trace = prefix @ [ Fuzz.Corrupt kind ] in
      match (Fuzz.execute cfg trace).Fuzz.failure with
      | Some f ->
          Alcotest.(check bool)
            (Printf.sprintf "kind %d caught at the corrupt op" kind)
            true
            (f.Fuzz.index = List.length trace - 1
            && f.Fuzz.problems <> [])
      | None -> Alcotest.failf "corruption kind %d went undetected" kind)
    [ 0; 1; 2; 3 ]

let test_minimize_deterministic () =
  let cfg = Fuzz.config ~ops:800 ~corrupt:true ~seed:9 () in
  let trace = Fuzz.gen cfg in
  (match (Fuzz.execute cfg trace).Fuzz.failure with
  | None -> Alcotest.fail "corrupt trace should fail (pick another seed)"
  | Some _ -> ());
  let m1 = Fuzz.minimize cfg trace in
  let m2 = Fuzz.minimize cfg trace in
  Alcotest.(check bool) "minimize is deterministic" true (m1 = m2);
  Alcotest.(check bool)
    (Printf.sprintf "minimized %d -> %d ops" (List.length trace)
       (List.length m1))
    true
    (List.length m1 < List.length trace);
  match (Fuzz.execute cfg m1).Fuzz.failure with
  | Some _ -> ()
  | None -> Alcotest.fail "minimized trace no longer fails"

let test_minimize_passing_trace_unchanged () =
  let cfg = Fuzz.config ~ops:200 ~seed:13 () in
  let trace = Fuzz.gen cfg in
  Alcotest.(check bool) "passing trace returned unchanged" true
    (Fuzz.minimize cfg trace == trace || Fuzz.minimize cfg trace = trace)

(* Fuzz runs sharded over domains under the armed checker
   (non-abort, with a self-corrupting cell among them): real violations
   flow through the shard harvests, absorbed in input order, and the
   report must match at any job count byte for byte (the
   Heapcheck.shard/absorb harvest contract). *)
let test_sharded_checker_report () =
  let cfgs =
    [
      Fuzz.config ~ops:800 ~seed:31 ();
      Fuzz.config ~ops:800 ~seed:32 ~pressure:true ~fault_rate:0.2 ();
      Fuzz.config ~ops:800 ~seed:33 ~debug:true ~check_every:16 ();
      Fuzz.config ~ops:800 ~seed:34 ~pressure:true ~debug:true ();
      Fuzz.config ~ops:400 ~seed:35 ~corrupt:true ();
    ]
  in
  let with_checker jobs =
    Heapcheck.enable ~abort:false ();
    Fun.protect ~finally:Heapcheck.disable (fun () ->
        let os =
          List.map
            (fun (o, harvest) ->
              Heapcheck.absorb harvest;
              o)
            (Parallel.map ~jobs
               (fun cfg -> Heapcheck.shard (fun () -> fuzz cfg))
               cfgs)
        in
        (os, Heapcheck.report (), Heapcheck.violation_count ()))
  in
  let o1, rep1, n1 = with_checker 1 in
  let o3, rep3, n3 = with_checker 3 in
  Alcotest.(check bool) "armed outcomes identical" true (o1 = o3);
  Alcotest.(check string) "armed report identical" rep1 rep3;
  Alcotest.(check int) "armed violation counts identical" n1 n3;
  Alcotest.(check bool) "the planted corruption was absorbed" true (n1 > 0)

let suite =
  [
    Alcotest.test_case "pressure x debug matrix passes" `Quick test_matrix;
    Alcotest.test_case "sharded checker report deterministic" `Quick
      test_sharded_checker_report;
    Alcotest.test_case "10k ops with pressure and faults" `Slow
      test_acceptance_10k;
    Alcotest.test_case "sweep mode passes with sparse checks" `Quick
      test_sweep_mode;
    Alcotest.test_case "generation and outcome deterministic" `Quick
      test_gen_deterministic;
    Alcotest.test_case "every corruption kind is caught" `Quick
      test_corrupt_kinds_caught;
    Alcotest.test_case "minimization deterministic and sound" `Quick
      test_minimize_deterministic;
    Alcotest.test_case "minimize leaves passing traces alone" `Quick
      test_minimize_passing_trace_unchanged;
  ]
