(* Unit coverage for the non-blocking buddy: implicit splitting and
   coalescing through the status tree, conflict-free reuse, exhaustion,
   and the quiescent invariant oracle. *)

let machine ?(ncpus = 2) () =
  Sim.Machine.create
    (Sim.Config.make ~ncpus ~memory_words:131072 ~uncached_words:512 ())

let on_cpu0 m f =
  let out = ref None in
  Sim.Machine.run m [| (fun _ -> out := Some (f ())) |];
  Option.get !out

let check_oracle b what =
  match Lockfree.Nbbuddy.invariant_oracle b with
  | None -> ()
  | Some msg -> Alcotest.failf "%s: invariant violated: %s" what msg

let test_roundtrip () =
  let m = machine () in
  let b = Lockfree.Nbbuddy.create m in
  on_cpu0 m (fun () ->
      List.iter
        (fun bytes ->
          let a = Lockfree.Nbbuddy.alloc b ~bytes in
          Alcotest.(check bool) "alloc succeeds" true (a <> 0);
          Lockfree.Nbbuddy.free b ~addr:a ~bytes)
        [ 16; 32; 64; 100; 256; 512; 1024; 2048; 4096 ]);
  Alcotest.(check int) "all returned" 0 (Lockfree.Nbbuddy.allocated_words_oracle b);
  check_oracle b "roundtrip"

let test_split_accounting () =
  (* A 16 B claim splits a chunk implicitly: only the claimed words are
     accounted, and the invariant holds with marks up the tree. *)
  let m = machine () in
  let b = Lockfree.Nbbuddy.create m in
  let a = on_cpu0 m (fun () -> Lockfree.Nbbuddy.alloc b ~bytes:16) in
  Alcotest.(check bool) "got block" true (a <> 0);
  Alcotest.(check int) "4 words claimed" 4
    (Lockfree.Nbbuddy.allocated_words_oracle b);
  check_oracle b "after split";
  on_cpu0 m (fun () -> Lockfree.Nbbuddy.free b ~addr:a ~bytes:16);
  Alcotest.(check int) "released" 0 (Lockfree.Nbbuddy.allocated_words_oracle b);
  check_oracle b "after free"

let test_implicit_coalesce () =
  (* Fill whole chunks with small blocks, free them all, then claim at
     the top class: freeing the last small piece must have re-created
     claimable 4096 B blocks with no explicit merge. *)
  let m = machine () in
  let b = Lockfree.Nbbuddy.create m in
  let chunks = Lockfree.Nbbuddy.arena_words_oracle b / 1024 in
  on_cpu0 m (fun () ->
      let live = ref [] in
      for _ = 1 to 512 do
        let a = Lockfree.Nbbuddy.alloc b ~bytes:64 in
        Alcotest.(check bool) "small alloc" true (a <> 0);
        live := a :: !live
      done;
      List.iter (fun a -> Lockfree.Nbbuddy.free b ~addr:a ~bytes:64) !live;
      let big = ref [] in
      for _ = 1 to chunks do
        let a = Lockfree.Nbbuddy.alloc b ~bytes:4096 in
        Alcotest.(check bool) "chunk alloc after coalesce" true (a <> 0);
        big := a :: !big
      done;
      (* the arena is now entirely claimed at the top class *)
      Alcotest.(check int) "exhausted" 0 (Lockfree.Nbbuddy.alloc b ~bytes:16);
      List.iter (fun a -> Lockfree.Nbbuddy.free b ~addr:a ~bytes:4096) !big);
  Alcotest.(check int) "conserved" 0 (Lockfree.Nbbuddy.allocated_words_oracle b);
  check_oracle b "coalesce"

let test_exhaustion_and_recovery () =
  let m = machine () in
  let b = Lockfree.Nbbuddy.create m in
  let words = Lockfree.Nbbuddy.arena_words_oracle b in
  on_cpu0 m (fun () ->
      let live = ref [] in
      let n = ref 0 in
      let rec fill () =
        let a = Lockfree.Nbbuddy.alloc b ~bytes:4096 in
        if a <> 0 then begin
          live := a :: !live;
          incr n;
          fill ()
        end
      in
      fill ();
      Alcotest.(check int) "whole arena claimable" (words / 1024) !n;
      Alcotest.(check int) "exhausted" 0 (Lockfree.Nbbuddy.alloc b ~bytes:16);
      (match !live with
      | a :: rest ->
          Lockfree.Nbbuddy.free b ~addr:a ~bytes:4096;
          let again = Lockfree.Nbbuddy.alloc b ~bytes:2048 in
          Alcotest.(check bool) "recovers after free" true (again <> 0);
          Lockfree.Nbbuddy.free b ~addr:again ~bytes:2048;
          List.iter (fun a -> Lockfree.Nbbuddy.free b ~addr:a ~bytes:4096) rest
      | [] -> Alcotest.fail "no blocks"));
  check_oracle b "exhaustion"

let test_bad_sizes () =
  let m = machine () in
  let b = Lockfree.Nbbuddy.create m in
  on_cpu0 m (fun () ->
      Alcotest.(check int) "oversize is 0" 0
        (Lockfree.Nbbuddy.alloc b ~bytes:8192);
      Alcotest.check_raises "zero bytes"
        (Invalid_argument "Lockfree.Nbbuddy: bytes <= 0") (fun () ->
          ignore (Lockfree.Nbbuddy.alloc b ~bytes:0)))

let test_stats_move () =
  let m = machine () in
  let b = Lockfree.Nbbuddy.create m in
  on_cpu0 m (fun () ->
      let a = Lockfree.Nbbuddy.alloc b ~bytes:16 in
      Lockfree.Nbbuddy.free b ~addr:a ~bytes:16);
  let s = Lockfree.Nbbuddy.stats b in
  Alcotest.(check bool) "claim CAS counted" true (s.Lockfree.Stats.cas_attempts >= 1);
  Alcotest.(check bool) "marks counted" true (s.Lockfree.Stats.mark_rmws >= 2);
  Lockfree.Stats.reset s;
  Alcotest.(check int) "reset" 0 s.Lockfree.Stats.cas_attempts

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "split accounting" `Quick test_split_accounting;
    Alcotest.test_case "implicit coalesce" `Quick test_implicit_coalesce;
    Alcotest.test_case "exhaustion and recovery" `Quick
      test_exhaustion_and_recovery;
    Alcotest.test_case "bad sizes" `Quick test_bad_sizes;
    Alcotest.test_case "stats" `Quick test_stats_move;
  ]
