(* Classic multiprocessor litmus tests.  The simulated machine executes
   memory operations atomically in global virtual-time order, so it is
   sequentially consistent: the relaxed outcomes hardware memory models
   permit must never appear.  These tests document (and pin) the memory
   model the allocator code is written against — the paper's 80486s
   were likewise strongly ordered. *)

open Sim

let machine () =
  Machine.create
    (Config.make ~ncpus:2 ~memory_words:4096
       ~geometry:{ Geometry.default with cache_lines = 0 }
       ())

(* Store buffering (SB): x = y = 0; P0: x:=1; r0:=y | P1: y:=1; r1:=x.
   Under SC, r0 = r1 = 0 is forbidden.  Sweep relative timings by
   varying pre-work so both interleavings are explored. *)
let test_store_buffering () =
  for skew = 0 to 20 do
    let m = machine () in
    let r0 = ref (-1) and r1 = ref (-1) in
    Machine.run m
      [|
        (fun _ ->
          Machine.work skew;
          Machine.write 100 1;
          r0 := Machine.read 200);
        (fun _ ->
          Machine.work (20 - skew);
          Machine.write 200 1;
          r1 := Machine.read 100);
      |];
    if !r0 = 0 && !r1 = 0 then
      Alcotest.failf "SB relaxed outcome at skew %d: r0=r1=0" skew
  done

(* Message passing (MP): P0: data:=42; flag:=1 | P1: if flag=1 then
   read data.  Under SC the data must be visible once the flag is. *)
let test_message_passing () =
  for skew = 0 to 20 do
    let m = machine () in
    let seen = ref (-1) in
    Machine.run m
      [|
        (fun _ ->
          Machine.work skew;
          Machine.write 100 42;
          Machine.write 101 1);
        (fun _ ->
          Machine.work (20 - skew);
          if Machine.read 101 = 1 then seen := Machine.read 100);
      |];
    if !seen <> -1 && !seen <> 42 then
      Alcotest.failf "MP violation at skew %d: flag set but data %d" skew
        !seen
  done

(* Coherence (CoWW/CoRR): all CPUs agree on the order of writes to one
   location — the final value is one of the written values and reads
   never go backwards in a single observer. *)
let test_coherence_single_location () =
  let m = machine () in
  let readings = ref [] in
  Machine.run m
    [|
      (fun _ ->
        for v = 1 to 50 do
          Machine.write 100 v
        done);
      (fun _ ->
        for _ = 1 to 100 do
          readings := Machine.read 100 :: !readings
        done);
    |];
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        if a < b then Alcotest.failf "read went backwards: %d after %d" b a
        else monotone rest
    | _ -> ()
  in
  (* !readings is newest-first, so monotone non-increasing = reads never
     go backwards in program order. *)
  monotone !readings

(* Atomicity: a CAS that succeeds observed the value it replaced; two
   CPUs CASing 0->id on the same word elect exactly one winner. *)
let test_cas_election () =
  for skew = 0 to 10 do
    let m = machine () in
    let winners = ref [] in
    Machine.run m
      (Array.init 2 (fun _ cpu ->
           Machine.work (if cpu = 0 then skew else 10 - skew);
           if Machine.cas_val 100 ~expected:0 ~desired:(cpu + 1) = 0 then
             winners := cpu :: !winners));
    Alcotest.(check int)
      (Printf.sprintf "one winner at skew %d" skew)
      1
      (List.length !winners);
    let v = Memory.get (Machine.memory m) 100 in
    Alcotest.(check int) "winner's value stored" (List.hd !winners + 1) v
  done

let suite =
  [
    Alcotest.test_case "SB: store buffering forbidden" `Quick
      test_store_buffering;
    Alcotest.test_case "MP: message passing ordered" `Quick
      test_message_passing;
    Alcotest.test_case "coherence on one location" `Quick
      test_coherence_single_location;
    Alcotest.test_case "CAS elects exactly one winner" `Quick
      test_cas_election;
  ]
