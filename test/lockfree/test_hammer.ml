(* Seeded multi-CPU hammer: every CPU runs a deterministic random
   alloc/free mix against one shared lock-free allocator while a
   host-side word map asserts no two live blocks ever overlap.  After
   the storm, conservation and the quiescent invariants must hold
   exactly.  [run] is reused by the determinism proof. *)

type outcome = {
  elapsed : int;
  stats : string;  (** rendered counters, compared verbatim *)
  checksum : int;  (** order-sensitive digest of every alloc result *)
}

let lcg s = ((s * 25214903917) + 11) land ((1 lsl 48) - 1)

let run ~which ~ncpus ~iters ~seed () =
  let m =
    Sim.Machine.create
      (Sim.Config.make ~ncpus ~memory_words:262144 ~uncached_words:512 ())
  in
  let a, probe = Baseline.Allocator.create_probed which m in
  let claimed : (int, int) Hashtbl.t = Hashtbl.create 4096 in
  let claim ~cpu addr words =
    for w = addr to addr + words - 1 do
      if Hashtbl.mem claimed w then
        Alcotest.failf "cpu %d: word %d of block %d already live" cpu w addr;
      Hashtbl.replace claimed w cpu
    done
  in
  let release addr words =
    for w = addr to addr + words - 1 do
      Hashtbl.remove claimed w
    done
  in
  let checksum = ref 0 in
  let program cpu =
    let rnd = ref (seed + ((cpu + 1) * 7919)) in
    let next () =
      rnd := lcg !rnd;
      (!rnd lsr 11) land 0xffffff
    in
    let live = ref [] in
    let nlive = ref 0 in
    for _ = 1 to iters do
      let r = next () in
      if r land 3 = 0 && !nlive > 0 then (
        match !live with
        | (addr, bytes) :: rest ->
            live := rest;
            decr nlive;
            release addr (bytes / 4);
            a.Baseline.Allocator.free ~addr ~bytes
        | [] -> ())
      else begin
        let bytes = 16 lsl (r lsr 8 mod 6) in
        let addr = a.Baseline.Allocator.alloc ~bytes in
        checksum := lcg (!checksum lxor addr);
        if addr <> 0 then begin
          claim ~cpu addr (bytes / 4);
          live := (addr, bytes) :: !live;
          incr nlive
        end
      end
    done;
    List.iter
      (fun (addr, bytes) ->
        release addr (bytes / 4);
        a.Baseline.Allocator.free ~addr ~bytes)
      !live
  in
  Sim.Machine.run_symmetric m ~ncpus program;
  Alcotest.(check int) "nothing live after drain" 0 (Hashtbl.length claimed);
  (match
     Option.bind probe.Baseline.Allocator.drained (fun oracle -> oracle ())
   with
  | None -> ()
  | Some msg -> Alcotest.failf "drain check failed: %s" msg);
  {
    elapsed = Sim.Machine.elapsed m;
    stats =
      (match probe.Baseline.Allocator.stats with
      | Some s -> Lockfree.Stats.to_string s
      | None -> "");
    checksum = !checksum;
  }

let test_nbbuddy_hammer () =
  let outcome =
    run ~which:Baseline.Allocator.Nbbuddy ~ncpus:8 ~iters:300 ~seed:1 ()
  in
  Alcotest.(check bool) "made progress" true (outcome.elapsed > 0)

let test_nbbuddy_invariants () =
  (* same storm, against a direct handle, then oracle-check *)
  let m =
    Sim.Machine.create
      (Sim.Config.make ~ncpus:8 ~memory_words:262144 ~uncached_words:512 ())
  in
  let b = Lockfree.Nbbuddy.create m in
  let program cpu =
    let rnd = ref (1 + ((cpu + 1) * 104729)) in
    let next () =
      rnd := lcg !rnd;
      (!rnd lsr 11) land 0xffffff
    in
    let live = ref [] in
    for _ = 1 to 300 do
      let r = next () in
      if r land 3 = 0 then (
        match !live with
        | (addr, bytes) :: rest ->
            live := rest;
            Lockfree.Nbbuddy.free b ~addr ~bytes
        | [] -> ())
      else begin
        let bytes = 16 lsl (r lsr 8 mod 7) in
        let addr = Lockfree.Nbbuddy.alloc b ~bytes in
        if addr <> 0 then live := (addr, bytes) :: !live
      end
    done;
    List.iter (fun (addr, bytes) -> Lockfree.Nbbuddy.free b ~addr ~bytes) !live
  in
  Sim.Machine.run_symmetric m ~ncpus:8 program;
  (match Lockfree.Nbbuddy.invariant_oracle b with
  | None -> ()
  | Some msg -> Alcotest.failf "invariant violated: %s" msg);
  Alcotest.(check int) "conservation" 0
    (Lockfree.Nbbuddy.allocated_words_oracle b);
  let s = Lockfree.Nbbuddy.stats b in
  Alcotest.(check bool) "counters consistent" true
    (s.Lockfree.Stats.cas_failures <= s.Lockfree.Stats.cas_attempts)

let test_bwfixed_hammer () =
  let outcome =
    run ~which:Baseline.Allocator.Bwfixed ~ncpus:8 ~iters:300 ~seed:2 ()
  in
  Alcotest.(check bool) "made progress" true (outcome.elapsed > 0)

let test_bwfixed_conservation () =
  let m =
    Sim.Machine.create
      (Sim.Config.make ~ncpus:8 ~memory_words:262144 ~uncached_words:512 ())
  in
  let b = Lockfree.Bwfixed.create m in
  let program cpu =
    let rnd = ref (2 + ((cpu + 1) * 104729)) in
    let next () =
      rnd := lcg !rnd;
      (!rnd lsr 11) land 0xffffff
    in
    let live = ref [] in
    for _ = 1 to 300 do
      let r = next () in
      if r land 3 = 0 then (
        match !live with
        | (addr, bytes) :: rest ->
            live := rest;
            Lockfree.Bwfixed.free b ~addr ~bytes
        | [] -> ())
      else begin
        let bytes = 16 lsl (r lsr 8 mod 7) in
        let addr = Lockfree.Bwfixed.alloc b ~bytes in
        if addr <> 0 then live := (addr, bytes) :: !live
      end
    done;
    List.iter (fun (addr, bytes) -> Lockfree.Bwfixed.free b ~addr ~bytes) !live
  in
  Sim.Machine.run_symmetric m ~ncpus:8 program;
  for c = 0 to 8 do
    Alcotest.(check int)
      (Printf.sprintf "class %d conserved" c)
      (Lockfree.Bwfixed.blocks_of_class b ~c)
      (Lockfree.Bwfixed.free_blocks_oracle b ~c)
  done

let test_nbbuddy_helping () =
  (* Preemption-heavy hammer for the unmark helping path (ISSUE 9):
     the window is two ops wide — an allocation must land in a subtree
     between a freeing CPU's parent-bit clear and its recheck — so the
     E13 sweeps, whose per-CPU hints spread CPUs across wide rows,
     never hit it ([helps] stays 0).  Force it: a depth-8 tree (4096
     memory words) has exactly two 2048 B nodes under one 4096 B root,
     so eight CPUs mixing the two top classes collide on every
     operation and the scheduler drives allocations through the
     window.  Quiescent invariants and conservation must survive the
     storm. *)
  let m =
    Sim.Machine.create
      (Sim.Config.make ~ncpus:8 ~memory_words:4096 ~uncached_words:512 ())
  in
  let b = Lockfree.Nbbuddy.create m in
  let program cpu =
    let rnd = ref (9 + ((cpu + 1) * 6271)) in
    for _ = 1 to 400 do
      rnd := lcg !rnd;
      let bytes = if (!rnd lsr 11) land 3 = 0 then 4096 else 2048 in
      let addr = Lockfree.Nbbuddy.alloc b ~bytes in
      if addr <> 0 then begin
        Sim.Machine.write addr cpu;
        Lockfree.Nbbuddy.free b ~addr ~bytes
      end
    done
  in
  Sim.Machine.run_symmetric m ~ncpus:8 program;
  let s = Lockfree.Nbbuddy.stats b in
  Alcotest.(check bool) "helping path exercised" true
    (s.Lockfree.Stats.helps > 0);
  Alcotest.(check bool) "rollback path exercised" true
    (s.Lockfree.Stats.conflicts > 0);
  (match Lockfree.Nbbuddy.invariant_oracle b with
  | None -> ()
  | Some msg -> Alcotest.failf "invariant violated: %s" msg);
  Alcotest.(check int) "conservation" 0
    (Lockfree.Nbbuddy.allocated_words_oracle b)

let test_crosscpu_remote_free () =
  (* producer/consumer rings: blocks allocated on one CPU are freed on
     another — the remote-free path of both arms end to end *)
  List.iter
    (fun which ->
      let r =
        Workload.Crosscpu.run ~which ~pairs:2 ~blocks_per_pair:200 ~bytes:256
          ()
      in
      Alcotest.(check int)
        (Baseline.Allocator.name_of which ^ " transfers")
        400 r.Workload.Crosscpu.transfers)
    [ Baseline.Allocator.Nbbuddy; Baseline.Allocator.Bwfixed ]

let suite =
  [
    Alcotest.test_case "nbbuddy hammer" `Quick test_nbbuddy_hammer;
    Alcotest.test_case "nbbuddy invariants" `Quick test_nbbuddy_invariants;
    Alcotest.test_case "nbbuddy helping" `Quick test_nbbuddy_helping;
    Alcotest.test_case "bwfixed hammer" `Quick test_bwfixed_hammer;
    Alcotest.test_case "bwfixed conservation" `Quick test_bwfixed_conservation;
    Alcotest.test_case "crosscpu remote free" `Quick test_crosscpu_remote_free;
  ]
