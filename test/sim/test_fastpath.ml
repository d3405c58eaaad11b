(* The fast-path equivalence proof at the machine level: running ANY
   program with the same-CPU inline fast path disabled (every operation
   through the effect handler and scheduler, the pre-fast-path mode)
   and enabled must produce bit-identical virtual time, per-CPU clocks,
   retired-operation counts, interrupt flags, cache statistics, memory
   contents, and host state the programs share through [Machine.sync]
   anchors.  The experiment-level
   fig7/E8 proofs live in test/experiments; this one drives randomized
   multi-CPU programs straight at [Sim.Machine] so shrinking points at
   the offending operation mix. *)

open Sim

let mem_words = 4096

(* Host-signalled handoffs between the random programs.  A CPU may park
   until a CPU ranked below it (in a seed-rotated order, so waker ids
   above and below the waiter's both occur) has posted again or
   finished; the waits-for graph is therefore acyclic and every program
   finishes.  A post is host code right after a zero-cost [now] — the
   publishing-point rule of [Machine.wake] — except in a program's
   prologue, which runs while the machine is still launching programs:
   there a post may wake a lower-id CPU whose prologue parked, before
   that park's first poll. *)
type handoff = {
  posts : int array;
  finished : bool array;
  waiting_on : int array; (* -1: not waiting *)
  shift : int;
  mutable mix : int;
      (* order-sensitive hash of every CPU's [sync]-anchored updates *)
}

let handoff ncpus seed =
  {
    posts = Array.make ncpus 0;
    finished = Array.make ncpus false;
    waiting_on = Array.make ncpus (-1);
    shift = seed mod ncpus;
    mix = 0;
  }

(* Lines private to each CPU, and read-only lines, declared at boot so
   their hits run ahead of the schedule. *)
let private_base cpu = 2048 + (cpu * 64)
let ro_base = 2560

let declare m ncpus =
  for cpu = 0 to ncpus - 1 do
    Cache.own (Machine.cache m) ~addr:(private_base cpu) ~words:64 (Cache.Cpu cpu)
  done;
  for w = 0 to 63 do
    Memory.set (Machine.memory m) (ro_base + w) (w * w)
  done;
  Cache.own (Machine.cache m) ~addr:ro_base ~words:64 Cache.Read_only

let rank h cpu = (cpu + h.shift) mod Array.length h.posts

let publish h cpu update =
  update ();
  Array.iteri
    (fun w src ->
      if src = cpu then begin
        h.waiting_on.(w) <- -1;
        Machine.wake w
      end)
    h.waiting_on

let post h cpu = publish h cpu (fun () -> h.posts.(cpu) <- h.posts.(cpu) + 1)

(* Park until a CPU ranked below [cpu] posts again (or once more) or
   finishes; the rank-0 CPU never waits. *)
let wait h cpu next =
  let n = Array.length h.posts in
  let r = rank h cpu in
  if r > 0 then begin
    let src = (next () mod r - h.shift + n) mod n in
    let target = h.posts.(src) + 1 + (next () mod 2) in
    while not (h.posts.(src) >= target || h.finished.(src)) do
      h.waiting_on.(cpu) <- src;
      Machine.park ()
    done
  end

(* A deterministic mixed-operation program: reads, writes, RMWs, work,
   raw relaxed spins, a contended spinlock critical section (the
   relaxed-Spin inlining leg plus the scheduled TAS leg), posts and
   parked waits on the handoffs above, the run-ahead leg (loads and
   stores to the CPU's own lines, loads of read-only lines, [cpu_id],
   interrupt flips), and [sync]-anchored updates of shared host state.
   Addresses span the uncached region (first 64 words: the lock and
   counters) and the cached region, across enough lines to force
   evictions and cross-CPU invalidations. *)
let program h lock seed len cpu =
  let st = ref ((seed * 69069) + (cpu * 7919) + 1) in
  let next () =
    st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
    !st
  in
  (* The prologue runs while [run] is still launching programs. *)
  if next () mod 2 = 0 then post h cpu;
  if next () mod 2 = 0 then wait h cpu next;
  for _ = 1 to len do
    match next () mod 19 with
    | 0 -> ignore (Machine.read (64 + (next () mod 1024)))
    | 1 -> Machine.write (64 + (next () mod 1024)) (next ())
    | 2 -> ignore (Machine.fetch_add (32 + (next () mod 8)) 1)
    | 3 -> Machine.work (1 + (next () mod 5))
    | 4 ->
        ignore
          (Machine.cas
             (40 + (next () mod 8))
             ~expected:0 ~desired:(next ()))
    | 5 -> ignore (Machine.swap (48 + (next () mod 8)) (next ()))
    | 6 ->
        Spinlock.with_lock lock (fun () ->
            Machine.write 60 (Machine.read 60 + 1))
    | 7 -> ignore (Machine.fetch_or (52 + (next () mod 4)) (next () land 0xff))
    | 8 ->
        ignore (Machine.fetch_and (52 + (next () mod 4)) (lnot (next () land 0xf)))
    | 9 ->
        ignore
          (Machine.cas_val
             (40 + (next () mod 8))
             ~expected:(next () land 1) ~desired:(next ()))
    | 10 -> Machine.spin_pause ()
    | 11 ->
        ignore (Machine.now ());
        post h cpu
    | 13 -> ignore (Machine.read (private_base cpu + (next () mod 64)))
    | 14 -> Machine.write (private_base cpu + (next () mod 64)) (next ())
    | 15 -> ignore (Machine.read (ro_base + (next () mod 64)))
    | 16 ->
        if Machine.cpu_id () <> cpu then failwith "cpu_id";
        Machine.irq_disable ();
        Machine.work (1 + (next () mod 3));
        if next () mod 2 = 0 then Machine.irq_enable ()
    | 17 ->
        (* Shared host state after whatever ran last, ahead or not. *)
        Machine.sync ();
        h.mix <- ((h.mix * 31) + cpu + 1) land 0xFFFFFFF
    | 18 ->
        Machine.sync ();
        wait h cpu next
    | _ ->
        (* The check reads other CPUs' host state, so it must not
           follow an inline spin directly (the [spin_pause] contract):
           anchor it after an operation. *)
        ignore (Machine.now ());
        wait h cpu next
  done;
  ignore (Machine.now ());
  publish h cpu (fun () -> h.finished.(cpu) <- true)

type snapshot = {
  elapsed : int;
  cpu_times : int list;
  retired : int list;
  irq_off : bool list;
  stats : Cache.stats list;
  mix : int;
  memory : int array;
}

let execute ~fast (ncpus, seed, len) =
  Machine.set_fast_path fast;
  Fun.protect
    ~finally:(fun () -> Machine.set_fast_path true)
    (fun () ->
      let config =
        Config.make ~ncpus ~memory_words:mem_words ~uncached_words:64 ()
      in
      let m = Machine.create config in
      declare m ncpus;
      let lock = Spinlock.init (Machine.memory m) 8 in
      let h = handoff ncpus seed in
      Machine.run_symmetric m ~ncpus (program h lock seed len);
      {
        elapsed = Machine.elapsed m;
        cpu_times =
          List.init ncpus (fun cpu -> Machine.cpu_time m ~cpu);
        retired = List.init ncpus (fun cpu -> Machine.retired m ~cpu);
        irq_off = List.init ncpus (fun cpu -> Machine.irq_disabled m ~cpu);
        stats =
          List.init ncpus (fun cpu ->
              let s = Cache.stats (Machine.cache m) ~cpu in
              { s with Cache.loads = s.Cache.loads });
        mix = h.mix;
        memory = Memory.blit_to_host (Machine.memory m) 0 ~len:mem_words;
      })

let case =
  QCheck.(
    triple (int_range 1 4) (int_range 0 1_000_000) (int_range 1 400))

let prop_fast_slow_identical =
  QCheck.Test.make ~name:"fast path is cycle- and state-identical"
    ~count:40 case (fun c ->
      execute ~fast:false c = execute ~fast:true c)

(* The oracle itself: with the fast path forced off, every operation is
   scheduled, and the toggle reports what it did. *)
let test_toggle () =
  Alcotest.(check bool) "default on" true (Machine.fast_path_enabled ());
  Machine.set_fast_path false;
  Alcotest.(check bool) "off" false (Machine.fast_path_enabled ());
  Machine.set_fast_path true;
  Alcotest.(check bool) "back on" true (Machine.fast_path_enabled ())

(* The non-default geometries matter too: the fast path must commute
   with capacity misses, set indexing, and changed costs. *)
let test_identical_under_geometry () =
  List.iter
    (fun spec ->
      let g =
        match Geometry.of_string spec with
        | Ok g -> g
        | Error m -> Alcotest.fail m
      in
      let execute fast =
        Machine.set_fast_path fast;
        Fun.protect
          ~finally:(fun () -> Machine.set_fast_path true)
          (fun () ->
            let config =
              Config.make ~geometry:g ~ncpus:3 ~memory_words:mem_words
                ~uncached_words:64 ()
            in
            let m = Machine.create config in
            declare m 3;
            let lock = Spinlock.init (Machine.memory m) 8 in
            let h = handoff 3 1234 in
            Machine.run_symmetric m ~ncpus:3 (program h lock 1234 300);
            ( Machine.elapsed m,
              h.mix,
              Memory.blit_to_host (Machine.memory m) 0 ~len:mem_words ))
      in
      let slow_t, slow_h, slow_m = execute false in
      let fast_t, fast_h, fast_m = execute true in
      Alcotest.(check int) (spec ^ ": cycles") slow_t fast_t;
      Alcotest.(check int) (spec ^ ": shared host state") slow_h fast_h;
      Alcotest.(check bool) (spec ^ ": memory") true (slow_m = fast_m))
    [ "line=4,lines=16"; "lines=32,assoc=2"; "miss=60,c2c=100,rmw=0" ]

(* --- parking edge cases, each against the polling oracle ------------ *)

(* Run [progs] (given a fresh shared flag and a host-side log) with the
   fast path off — where [park] is one scheduled poll — and on, and
   require identical clocks, retired counts and logs; returns the
   parked run's. *)
let both_modes ~ncpus progs =
  let go fast =
    Machine.set_fast_path fast;
    Fun.protect
      ~finally:(fun () -> Machine.set_fast_path true)
      (fun () ->
        let m =
          Machine.create
            (Config.make ~ncpus ~memory_words:mem_words ~uncached_words:64 ())
        in
        let log = ref [] in
        Machine.run m (progs (ref false) log);
        ( List.init ncpus (fun cpu -> Machine.cpu_time m ~cpu),
          List.init ncpus (fun cpu -> Machine.retired m ~cpu),
          List.rev !log ))
  in
  let polled = go false in
  let parked = go true in
  Alcotest.(check bool) "parked = polled" true (polled = parked);
  parked

let await flag = while not !flag do Machine.park () done

let signal flag cpu =
  ignore (Machine.now ());
  flag := true;
  Machine.wake cpu

(* Host code before a program's first operation runs while [run] is
   still launching programs, ahead of every poll: CPU 0's launch ends in
   a park, CPU 1's launch publishes, and CPU 0 pays exactly one poll. *)
let test_wake_during_launch () =
  let _, retired, _ =
    both_modes ~ncpus:2 (fun flag _ ->
        [|
          (fun _ -> await flag);
          (fun _ ->
            flag := true;
            Machine.wake 0;
            Machine.work 5);
        |])
  in
  Alcotest.(check int) "one poll" 1 (List.hd retired)

(* A wake whose publishing point precedes the sleeper's first poll: the
   park turns into that single poll. *)
let test_wake_before_first_poll () =
  let _, retired, _ =
    both_modes ~ncpus:2 (fun flag _ ->
        [|
          (fun _ ->
            Machine.work 100;
            await flag);
          (fun _ ->
            Machine.work 10;
            signal flag 0);
        |])
  in
  Alcotest.(check int) "work + one poll" 101 (List.hd retired)

(* The woken CPU re-enters the heap below the waker's fast-path
   horizon: the waker's next inline operations must stop at it, or the
   waker would read [x] past the point where the sleeper wrote it. *)
let test_wake_lowers_horizon () =
  let _, _, log =
    both_modes ~ncpus:2 (fun flag log ->
        [|
          (fun _ ->
            await flag;
            Machine.write 100 1);
          (fun _ ->
            Machine.work 1000;
            signal flag 0;
            for _ = 1 to 200 do
              log := Machine.read 100 :: !log
            done);
        |])
  in
  Alcotest.(check bool) "the waker sees the sleeper's write" true
    (List.mem 1 log && List.mem 0 log)

(* A handoff cycle: each CPU waits for a flag the other sets only after
   its own wait.  Polling would spin forever; parked, the run ends in
   [Deadlock] naming both CPUs, and the machine stays usable. *)
let test_deadlock_names_parked () =
  let m = Machine.create (Config.make ~ncpus:3 ~memory_words:mem_words ()) in
  let a = ref false and b = ref false in
  let resumed = ref false in
  (match
     Machine.run m
       [|
         (fun _ ->
           await a;
           resumed := true;
           signal b 1);
         (fun _ ->
           await b;
           resumed := true;
           signal a 0);
         (fun _ -> Machine.work 50);
       |]
   with
  | () -> Alcotest.fail "expected Deadlock"
  | exception Machine.Deadlock msg ->
      Alcotest.(check string) "names CPUs 0 and 1"
        "Sim.Machine.run: parked CPUs [0; 1] have nobody left to wake them" msg);
  (* A program that raises abandons the parked one too. *)
  (match
     Machine.run m
       [|
         (fun _ ->
           await a;
           resumed := true);
         (fun _ ->
           Machine.work 10;
           failwith "boom");
       |]
   with
  | () -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ());
  let t0 = Machine.cpu_time m ~cpu:0 in
  Machine.run m [| (fun _ -> Machine.work 7); (fun _ -> Machine.wake 0) |];
  Alcotest.(check bool) "abandoned programs never resume" false !resumed;
  Alcotest.(check int) "the machine runs on" (t0 + 7) (Machine.cpu_time m ~cpu:0)

(* With a watchdog armed nothing parks: an unpublished flag is a
   livelock the watchdog reports, exactly as before parking. *)
let test_watchdog_polls () =
  let m = Machine.create (Config.make ~ncpus:2 ~memory_words:mem_words ()) in
  let flag = ref false in
  match
    Machine.run ~max_cycles:20_000 m
      [| (fun _ -> await flag); (fun _ -> Machine.work 10) |]
  with
  | () -> Alcotest.fail "expected Watchdog"
  | exception Machine.Watchdog t ->
      Alcotest.(check bool) "expired past the limit" true (t > 20_000)

let test_outside_simulation () =
  Alcotest.check_raises "park" Machine.Not_in_simulation Machine.park;
  Alcotest.check_raises "wake" Machine.Not_in_simulation (fun () ->
      Machine.wake 0)

let suite =
  [
    Alcotest.test_case "fast-path toggle oracle" `Quick test_toggle;
    QCheck_alcotest.to_alcotest prop_fast_slow_identical;
    Alcotest.test_case "identical under non-default geometry" `Quick
      test_identical_under_geometry;
    Alcotest.test_case "park: wake during launch" `Quick test_wake_during_launch;
    Alcotest.test_case "park: wake before the first poll" `Quick
      test_wake_before_first_poll;
    Alcotest.test_case "park: wake lowers the waker's horizon" `Quick
      test_wake_lowers_horizon;
    Alcotest.test_case "park: handoff cycle raises Deadlock" `Quick
      test_deadlock_names_parked;
    Alcotest.test_case "park: a watchdog keeps polling" `Quick
      test_watchdog_polls;
    Alcotest.test_case "park/wake outside a program" `Quick
      test_outside_simulation;
  ]
