(* The run-ahead contract: which operations may run ahead of the
   schedule, what [Machine.sync] restores, and the ownership
   declarations that make a memory hit private.  Every ordering check
   runs the same programs with the fast path off (every operation
   scheduled: the oracle) and on. *)

open Sim

let mem_words = 4096

let machine ?(ncpus = 2) () =
  Machine.create (Config.make ~ncpus ~memory_words:mem_words ~uncached_words:64 ())

(* --- ownership ------------------------------------------------------ *)

let violation f =
  match f () with
  | () -> Alcotest.fail "expected Ownership_violation"
  | exception Cache.Ownership_violation msg -> msg

let test_other_cpu_raises () =
  let m = machine () in
  Cache.own (Machine.cache m) ~addr:256 ~words:8 (Cache.Cpu 0);
  Alcotest.(check string)
    "load names both CPUs and the address"
    "Sim.Cache: CPU 1 loads address 258, on a line owned by CPU 0"
    (violation (fun () ->
         Machine.run m [| (fun _ -> ()); (fun _ -> ignore (Machine.read 258)) |]));
  Alcotest.(check string)
    "store names both CPUs and the address"
    "Sim.Cache: CPU 1 stores to address 256, on a line owned by CPU 0"
    (violation (fun () ->
         Machine.run m [| (fun _ -> ()); (fun _ -> Machine.write 256 1) |]));
  Alcotest.(check string)
    "an atomic is a store"
    "Sim.Cache: CPU 1 updates address 257, on a line owned by CPU 0"
    (violation (fun () ->
         Machine.run m
           [| (fun _ -> ()); (fun _ -> ignore (Machine.fetch_add 257 1)) |]));
  (* The owner itself is unaffected, and nobody else ever got a copy. *)
  Machine.run m
    [|
      (fun _ ->
        Machine.write 256 7;
        Alcotest.(check int) "owner reads back" 7 (Machine.read 256));
    |];
  Alcotest.(check (list int)) "held by the owner only" [ 0 ]
    (Cache.holders_oracle (Machine.cache m) 256)

let test_read_only_store_raises () =
  let m = machine () in
  Memory.set (Machine.memory m) 512 42;
  Memory.set (Machine.memory m) 513 42;
  Cache.own (Machine.cache m) ~addr:512 ~words:8 Cache.Read_only;
  Machine.run m
    [|
      (fun _ -> Alcotest.(check int) "CPU 0 loads" 42 (Machine.read 512));
      (fun _ -> Alcotest.(check int) "CPU 1 loads" 42 (Machine.read 513));
    |];
  Alcotest.(check string) "a store raises"
    "Sim.Cache: CPU 0 stores to read-only address 512"
    (violation (fun () -> Machine.run m [| (fun _ -> Machine.write 512 0) |]))

let test_declaring_held_line_raises () =
  let m = machine () in
  Machine.run m [| (fun _ -> ()); (fun _ -> ignore (Machine.read 768)) |];
  Alcotest.(check string) "another CPU holds the line"
    "Sim.Cache.own: line of address 768 (CPU 0): held by CPU 1"
    (violation (fun () -> Cache.own (Machine.cache m) ~addr:770 ~words:2 (Cache.Cpu 0)));
  Cache.own (Machine.cache m) ~addr:768 ~words:8 (Cache.Cpu 1);
  Cache.own (Machine.cache m) ~addr:768 ~words:8 (Cache.Cpu 1);
  Alcotest.(check string) "a second owner"
    "Sim.Cache.own: line of address 768 (read-only): already declared owned \
     by CPU 1"
    (violation (fun () -> Cache.own (Machine.cache m) ~addr:768 ~words:1 Cache.Read_only));
  Machine.run m [| (fun _ -> ()); (fun _ -> Machine.write 1024 1) |];
  Alcotest.(check string) "read-only over a modified line"
    "Sim.Cache.own: line of address 1024 (read-only): held modified by CPU 1"
    (violation (fun () -> Cache.own (Machine.cache m) ~addr:1024 ~words:8 Cache.Read_only));
  (* A refused declaration declares nothing, not even its first line. *)
  Machine.run m [| (fun _ -> ()); (fun _ -> ignore (Machine.read 1288)) |];
  ignore (violation (fun () -> Cache.own (Machine.cache m) ~addr:1280 ~words:16 (Cache.Cpu 0)));
  Machine.run m [| (fun _ -> ()); (fun _ -> ignore (Machine.read 1280)) |];
  Alcotest.check_raises "uncached memory"
    (Invalid_argument "Sim.Cache.own: [4040, 4041) is not cached memory")
    (fun () -> Cache.own (Machine.cache m) ~addr:4040 ~words:1 (Cache.Cpu 0))

(* --- ordering ------------------------------------------------------- *)

(* Run [progs log] with the fast path off and on; returns both logs. *)
let both ?max_cycles ?(setup = fun _ -> ()) progs =
  let go fast =
    Machine.set_fast_path_oracle fast;
    Fun.protect
      ~finally:(fun () -> Machine.set_fast_path_oracle true)
      (fun () ->
        let m = machine () in
        setup m;
        let log = ref [] in
        Machine.run ?max_cycles m (progs log);
        List.rev !log)
  in
  (go false, go true)

(* CPU 0 charges 100 then 1 cycle and logs; CPU 1 logs at cycle 10.  The
   scheduled position of CPU 0's log is the start of its last charge,
   cycle 100, so the oracle logs B first.  Run ahead, CPU 0's charges
   and log happen before CPU 1 even launches, unless [sync] anchors the
   log. *)
let gap_programs ~anchor log =
  [|
    (fun _ ->
      Machine.work 100;
      Machine.work 1;
      if anchor then Machine.sync ();
      log := "A" :: !log);
    (fun _ ->
      Machine.work 10;
      ignore (Machine.now ());
      log := "B" :: !log);
  |]

let order = Alcotest.(list string)

let test_sync_anchors () =
  let oracle, fast = both (gap_programs ~anchor:true) in
  Alcotest.(check order) "oracle order" [ "B"; "A" ] oracle;
  Alcotest.(check order) "anchored = oracle" oracle fast

(* The regression shape of a trace gap read without its anchor: the
   unanchored host code really does run ahead, which is why every site
   that reads shared host state after a private operation syncs. *)
let test_unanchored_runs_ahead () =
  let oracle, fast = both (gap_programs ~anchor:false) in
  Alcotest.(check order) "oracle order" [ "B"; "A" ] oracle;
  Alcotest.(check order) "run ahead" [ "A"; "B" ] fast

let test_watchdog_keeps_schedule () =
  let oracle, fast = both ~max_cycles:1_000_000 (gap_programs ~anchor:false) in
  Alcotest.(check order) "nothing runs ahead under a watchdog" oracle fast

(* An owned-line hit runs ahead like [work] does, except while a cache
   trace hook is installed: the hook must see accesses in schedule
   order. *)
let hit_programs log =
  [|
    (fun _ ->
      ignore (Machine.read 256);
      ignore (Machine.read 257);
      log := "A" :: !log);
    (fun _ ->
      Machine.work 10;
      ignore (Machine.now ());
      log := "B" :: !log);
  |]

let own_line m = Cache.own (Machine.cache m) ~addr:256 ~words:8 (Cache.Cpu 0)

let test_owned_hit_runs_ahead () =
  let oracle, fast = both ~setup:own_line hit_programs in
  Alcotest.(check order) "oracle order" [ "B"; "A" ] oracle;
  Alcotest.(check order) "the hit runs ahead" [ "A"; "B" ] fast

let test_trace_hook_keeps_schedule () =
  let seen = ref 0 in
  let setup m =
    own_line m;
    Cache.set_trace (Machine.cache m)
      (Some (fun ~cpu:_ ~addr:_ _ ~cost:_ -> incr seen))
  in
  let oracle, fast = both ~setup hit_programs in
  Alcotest.(check order) "nothing runs ahead under a trace hook" oracle fast;
  Alcotest.(check int) "the hook saw every access, twice" 4 !seen

(* [sync] charges nothing, and is a no-op outside a program. *)
let test_sync_noop () =
  Machine.sync ();
  let m = machine ~ncpus:1 () in
  Machine.run m
    [|
      (fun _ ->
        Machine.sync ();
        Machine.work 5;
        Machine.sync ();
        Alcotest.(check int) "no charge" 5 (Machine.now ()));
    |];
  Alcotest.(check int) "retired" 5 (Machine.retired m ~cpu:0)

let suite =
  [
    Alcotest.test_case "owned line: another CPU raises" `Quick
      test_other_cpu_raises;
    Alcotest.test_case "read-only line: a store raises" `Quick
      test_read_only_store_raises;
    Alcotest.test_case "declaring a held line raises" `Quick
      test_declaring_held_line_raises;
    Alcotest.test_case "sync anchors host code at its scheduled position"
      `Quick test_sync_anchors;
    Alcotest.test_case "unanchored host code runs ahead" `Quick
      test_unanchored_runs_ahead;
    Alcotest.test_case "a watchdog keeps every operation scheduled" `Quick
      test_watchdog_keeps_schedule;
    Alcotest.test_case "an owned-line hit runs ahead" `Quick
      test_owned_hit_runs_ahead;
    Alcotest.test_case "a cache trace hook keeps memory scheduled" `Quick
      test_trace_hook_keeps_schedule;
    Alcotest.test_case "sync is free when nothing ran ahead" `Quick
      test_sync_noop;
  ]
