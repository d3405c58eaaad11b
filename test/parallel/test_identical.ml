(* The tentpole contract, proven at experiment scale: a parallel run of
   a sweep is bit-identical to the sequential run — same result
   records, same printed bytes, and (for checker-enabled runs) the same
   heapcheck report.  Every simulation cell is a deterministic closed
   system, so any divergence would be a pool bug (ordering, sharing,
   lost cells), not noise. *)

(* Run [f] with stdout captured to a temp file and return (result,
   captured bytes) — the printed tables are part of the contract. *)
let capture_stdout f =
  flush stdout;
  let path = Filename.temp_file "parallel_capture" ".txt" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let restore () =
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved
  in
  match f () with
  | r ->
      restore ();
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Sys.remove path;
      (r, s)
  | exception e ->
      restore ();
      Sys.remove path;
      raise e

(* Fig7: the PR's flagship sweep (16 independent machines here).
   Compare the point records structurally and the rendered figure
   byte-for-byte. *)
let test_fig7_identical () =
  let sweep jobs =
    capture_stdout (fun () ->
        let points =
          Experiments.Fig7.run ~jobs ~cpus:[ 1; 2; 4; 8 ] ~iters:120 ()
        in
        Experiments.Fig7.print_linear points;
        Experiments.Fig7.print_semilog points;
        points)
  in
  let seq_points, seq_out = sweep 1 in
  let par_points, par_out = sweep 3 in
  Alcotest.(check bool)
    "fig7 point records identical (jobs=1 vs jobs=3)" true
    (seq_points = par_points);
  Alcotest.(check string)
    "fig7 printed output identical (jobs=1 vs jobs=3)" seq_out par_out

(* Missrates drives a single machine, so its sweep cannot shard — but
   the simulator itself must be domain-agnostic: the same run in a
   worker domain must reproduce the main-domain result bit-for-bit
   (this is what makes every other sweep shardable at all).  Marshal
   compare: zero-traffic classes yield NaN rates and [nan <> nan]. *)
let test_missrates_domain_agnostic () =
  let run () = Experiments.Missrates.run ~ncpus:2 ~transactions_per_cpu:200 () in
  let here = run () in
  let there = Domain.join (Domain.spawn run) in
  Alcotest.(check string)
    "missrates result identical on a worker domain"
    (Marshal.to_string here [])
    (Marshal.to_string there [])

(* Pressure under the heap checker: rows AND the merged checker report
   (checkpoint counts, violation order) must match the sequential run —
   the shard/absorb harvest contract. *)
let test_pressure_heapcheck_identical () =
  let sweep jobs =
    Heapcheck.enable ~abort:true ();
    Fun.protect ~finally:Heapcheck.disable (fun () ->
        let r =
          Experiments.Pressure.run ~jobs ~ncpus:2 ~rounds:6 ~batch:40
            ~rates:[ 0.0; 0.2 ] ()
        in
        (r, Heapcheck.report (), Heapcheck.check_count_oracle ()))
  in
  let seq_r, seq_rep, seq_checks = sweep 1 in
  let par_r, par_rep, par_checks = sweep 4 in
  Alcotest.(check bool)
    "pressure results identical (jobs=1 vs jobs=4)" true (seq_r = par_r);
  Alcotest.(check string)
    "heapcheck report identical (jobs=1 vs jobs=4)" seq_rep par_rep;
  Alcotest.(check int)
    "checkpoints were actually taken" seq_checks par_checks;
  Alcotest.(check bool) "some checkpoints ran" true (seq_checks > 0)

let suite =
  [
    Alcotest.test_case "fig7: parallel run bit-identical" `Quick
      test_fig7_identical;
    Alcotest.test_case "missrates: domain-agnostic simulator" `Quick
      test_missrates_domain_agnostic;
    Alcotest.test_case "pressure+heapcheck: sharded report identical" `Quick
      test_pressure_heapcheck_identical;
  ]
