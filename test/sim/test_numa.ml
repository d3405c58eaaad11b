open Sim

(* Regression tests for the 63/64-CPU sharer-bitmask overflow, plus the
   two-level NUMA cost model built on the fixed width-independent
   sharer set.

   The overflow: the line directory used to track sharers as a single
   native-int bitmask via [1 lsl cpu].  OCaml ints are 63-bit, so CPU
   63's bit was silently 0 (it never registered as a sharer at all) and
   CPU 62 landed on the sign bit — quietly wrong coherence accounting
   at the very top of the then-allowed [ncpus <= 64] range.  These
   tests fail against that representation and pass against the word
   array. *)

let cfg ?(ncpus = 4) ?(nodes = 1)
    ?(node_miss_cost = Geometry.default.node_miss_cost)
    ?(node_c2c_cost = Geometry.default.node_c2c_cost) ?(memory_words = 4096)
    () =
  Config.make ~ncpus
    ~geometry:
      {
        Geometry.default with
        cache_lines = 0;
        nodes;
        node_miss_cost;
        node_c2c_cost;
      }
    ~memory_words ()

(* --- the sharer-bitmask overflow, directly on the cache model --- *)

let test_cpu63_registers_as_sharer () =
  let c = cfg ~ncpus:64 () in
  let cache = Cache.create c in
  for cpu = 0 to 63 do
    ignore (Cache.access cache ~cpu 100 Cache.Load)
  done;
  let hs = Cache.holders_oracle cache 100 in
  Alcotest.(check int) "all 64 CPUs hold the line" 64 (List.length hs);
  Alcotest.(check bool) "CPU 63 is a sharer" true (List.mem 63 hs);
  Alcotest.(check bool) "CPU 62 is a sharer" true (List.mem 62 hs);
  (* The second load by each CPU must be a hit — with the overflow, CPU
     63 missed every single time. *)
  Alcotest.(check int) "CPU 63 re-load hits" 0
    (Cache.access cache ~cpu:63 100 Cache.Load);
  let st = Cache.stats cache ~cpu:63 in
  Alcotest.(check int) "CPU 63 counted one miss" 1 st.Cache.misses;
  Alcotest.(check int) "CPU 63 counted one hit" 1 st.Cache.hits

let test_invalidation_reaches_cpu63 () =
  let c = cfg ~ncpus:64 () in
  let cache = Cache.create c in
  for cpu = 0 to 63 do
    ignore (Cache.access cache ~cpu 200 Cache.Load)
  done;
  ignore (Cache.access cache ~cpu:0 200 Cache.Store);
  let st = Cache.stats cache ~cpu:0 in
  Alcotest.(check int) "store invalidated all 63 other copies" 63
    st.Cache.invalidations;
  Alcotest.(check (list int)) "only the writer holds it" [ 0 ]
    (Cache.holders_oracle cache 200);
  (* With CPU 62 on the sign bit, the eviction/steal bookkeeping could
     corrupt resident counts; they must all be consistent. *)
  for cpu = 1 to 63 do
    Alcotest.(check int)
      (Printf.sprintf "CPU %d resident count" cpu)
      0
      (Cache.resident_oracle cache ~cpu)
  done

let test_exclusive_store_at_cpu63 () =
  let c = cfg ~ncpus:64 () in
  let cache = Cache.create c in
  ignore (Cache.access cache ~cpu:63 300 Cache.Load);
  (* Exclusive upgrade must be silent; with the overflow the line never
     looked held, so the store was priced as a miss. *)
  Alcotest.(check int) "CPU 63 exclusive store is silent" 0
    (Cache.access cache ~cpu:63 300 Cache.Store);
  Alcotest.(check (option int)) "CPU 63 owns dirty" (Some 63)
    (Cache.dirty_owner_oracle cache 300)

let test_cap_lift_to_512 () =
  let c = cfg ~ncpus:512 ~memory_words:65536 () in
  let cache = Cache.create c in
  for cpu = 0 to 511 do
    ignore (Cache.access cache ~cpu 100 Cache.Load)
  done;
  Alcotest.(check int) "512 sharers tracked" 512
    (List.length (Cache.holders_oracle cache 100));
  ignore (Cache.access cache ~cpu:511 100 Cache.Store);
  let st = Cache.stats cache ~cpu:511 in
  Alcotest.(check int) "511 invalidations" 511 st.Cache.invalidations

let test_config_guard () =
  let expect_invalid what f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  (* The cap is now Config.max_cpus, guarded against the scheduler's
     packed-key width by a static assertion in Machine. *)
  ignore (Config.make ~ncpus:Config.max_cpus ~memory_words:65536 ());
  expect_invalid "ncpus above max_cpus" (fun () ->
      Config.make ~ncpus:(Config.max_cpus + 1) ~memory_words:65536 ());
  expect_invalid "nodes > ncpus" (fun () ->
      Config.make ~ncpus:4 ~geometry:{ Geometry.default with nodes = 8 } ())

(* --- scheduler above the old 64-CPU heap packing --- *)

let test_machine_runs_128_cpus () =
  let c = cfg ~ncpus:128 ~memory_words:65536 () in
  let m = Machine.create c in
  let hits = Array.make 128 0 in
  Machine.run_symmetric m ~ncpus:128 (fun cpu ->
      (* Distinct lines then one contended line: exercises both the
         heap ordering and cross-CPU coherence at ids >= 64. *)
      ignore (Machine.read (cpu * 8));
      Machine.write 4000 cpu;
      hits.(cpu) <- 1);
  Alcotest.(check int) "every CPU ran" 128 (Array.fold_left ( + ) 0 hits);
  Alcotest.(check bool) "time advanced" true (Machine.elapsed m > 0);
  Alcotest.(check (list int)) "last writer holds the contended line"
    [ 127 ]
    (Cache.holders_oracle (Machine.cache m) 4000)

let test_scheduled_equals_fast_at_80_cpus () =
  (* Determinism above the old cap: the same program must produce
     bit-identical clocks with the same-CPU fast path on and off. *)
  let run () =
    let c = cfg ~ncpus:80 ~memory_words:65536 () in
    let m = Machine.create c in
    Machine.run_symmetric m ~ncpus:80 (fun cpu ->
        for i = 0 to 20 do
          ignore (Machine.read ((cpu * 16) + i));
          Machine.write 5000 (cpu + i)
        done);
    (Machine.elapsed m, (Cache.total_stats (Machine.cache m)).Cache.stall_cycles)
  in
  let was = Machine.fast_path_enabled_oracle () in
  Machine.set_fast_path_oracle true;
  let fast = run () in
  Machine.set_fast_path_oracle false;
  let sched = run () in
  Machine.set_fast_path_oracle was;
  Alcotest.(check (pair int int)) "fast = scheduled at 80 CPUs" sched fast

(* --- two-level NUMA cost model --- *)

let test_topology_oracles () =
  let c = cfg ~ncpus:8 ~nodes:2 () in
  let cache = Cache.create c in
  Alcotest.(check int) "cpu 0 on node 0" 0 (Cache.node_of_cpu_oracle cache 0);
  Alcotest.(check int) "cpu 3 on node 0" 0 (Cache.node_of_cpu_oracle cache 3);
  Alcotest.(check int) "cpu 4 on node 1" 1 (Cache.node_of_cpu_oracle cache 4);
  Alcotest.(check int) "cpu 7 on node 1" 1 (Cache.node_of_cpu_oracle cache 7);
  Alcotest.(check int) "low memory homes on node 0" 0
    (Cache.home_of_addr_oracle cache 0);
  Alcotest.(check int) "high memory homes on node 1" 1
    (Cache.home_of_addr_oracle cache 4095)

let test_local_vs_remote_miss () =
  let c = cfg ~ncpus:8 ~nodes:2 ~node_miss_cost:60 () in
  let cache = Cache.create c in
  (* Address 0 homes on node 0: local for cpu 0, remote for cpu 4. *)
  Alcotest.(check int) "local miss at flat price" c.Config.geometry.miss_cost
    (Cache.access cache ~cpu:0 0 Cache.Load);
  let remote_addr = 4088 (* last line, homes on node 1 *) in
  Alcotest.(check int) "remote miss pays the surcharge"
    (c.Config.geometry.miss_cost + 60)
    (Cache.access cache ~cpu:0 remote_addr Cache.Load);
  let st = Cache.stats cache ~cpu:0 in
  Alcotest.(check int) "one remote access counted" 1 st.Cache.remote

let test_c2c_same_vs_cross_node () =
  let c = cfg ~ncpus:8 ~nodes:2 ~node_miss_cost:60 ~node_c2c_cost:80 () in
  let cache = Cache.create c in
  (* Dirty on cpu 0 (node 0); address homes on node 0. *)
  ignore (Cache.access cache ~cpu:0 0 Cache.Store);
  Alcotest.(check int) "same-node dirty transfer at flat price"
    c.Config.geometry.c2c_cost
    (Cache.access cache ~cpu:1 0 Cache.Load);
  ignore (Cache.access cache ~cpu:0 0 Cache.Store);
  Alcotest.(check int) "cross-node dirty transfer pays node_c2c"
    (c.Config.geometry.c2c_cost + 80)
    (Cache.access cache ~cpu:4 0 Cache.Load)

let test_c2c_three_hop_directory () =
  let c =
    cfg ~ncpus:12 ~nodes:3 ~node_miss_cost:60 ~node_c2c_cost:80 ()
  in
  let cache = Cache.create c in
  (* Owner on node 2, requester on node 0, home on node 1 (middle third
     of the 4096-word memory): the request detours through the home
     directory, paying node_c2c + node_miss. *)
  let addr = 2048 in
  Alcotest.(check int) "home is node 1" 1 (Cache.home_of_addr_oracle cache addr);
  ignore (Cache.access cache ~cpu:8 addr Cache.Store);
  Alcotest.(check int) "three-hop transfer"
    (c.Config.geometry.c2c_cost + 80 + 60)
    (Cache.access cache ~cpu:0 addr Cache.Load)

let test_upgrade_cross_node () =
  let c = cfg ~ncpus:8 ~nodes:2 ~node_c2c_cost:80 () in
  let cache = Cache.create c in
  (* Shared within node 0 only: invalidation round stays local. *)
  ignore (Cache.access cache ~cpu:0 0 Cache.Load);
  ignore (Cache.access cache ~cpu:1 0 Cache.Load);
  Alcotest.(check int) "same-node upgrade at flat price"
    c.Config.geometry.upgrade_cost
    (Cache.access cache ~cpu:0 0 Cache.Store);
  (* Shared across nodes: the round crosses the interconnect. *)
  ignore (Cache.access cache ~cpu:1 0 Cache.Load);
  ignore (Cache.access cache ~cpu:4 0 Cache.Load);
  Alcotest.(check int) "cross-node upgrade pays node_c2c"
    (c.Config.geometry.upgrade_cost + 80)
    (Cache.access cache ~cpu:0 0 Cache.Store)

let test_flat_machine_never_pays () =
  (* nodes = 1 (the default): node surcharges are configured but can
     never apply — the bit-identicality contract for every pre-NUMA
     recorded cycle count. *)
  let c = cfg ~ncpus:8 ~node_miss_cost:999 ~node_c2c_cost:999 () in
  let cache = Cache.create c in
  ignore (Cache.access cache ~cpu:0 0 Cache.Store);
  Alcotest.(check int) "c2c at flat price" c.Config.geometry.c2c_cost
    (Cache.access cache ~cpu:7 0 Cache.Load);
  Alcotest.(check int) "miss at flat price" c.Config.geometry.miss_cost
    (Cache.access cache ~cpu:3 4088 Cache.Load);
  Alcotest.(check int) "no remote accesses" 0
    (Cache.total_stats cache).Cache.remote

let test_per_node_buses () =
  (* Two CPUs on different nodes miss at the same instant, each
     against its own node's memory: with per-node buses neither waits.
     On the flat machine the second transfer queues behind the
     first. *)
  let run nodes =
    let c =
      Config.make ~ncpus:8
        ~geometry:{ Geometry.default with nodes; cache_lines = 0 }
        ~memory_words:4096 ()
    in
    let m = Machine.create c in
    let t = Array.make 8 0 in
    Machine.run
      m
      [|
        (fun _ -> ignore (Machine.read 0); t.(0) <- Machine.now ());
        (fun _ -> ());
        (fun _ -> ());
        (fun _ -> ());
        (fun _ -> ignore (Machine.read 2056); t.(4) <- Machine.now ());
        (fun _ -> ());
        (fun _ -> ());
        (fun _ -> ());
      |];
    (t.(0), t.(4))
  in
  let flat0, flat4 = run 1 in
  let numa0, numa4 = run 2 in
  Alcotest.(check int) "first requester unaffected" flat0 numa0;
  Alcotest.(check bool)
    (Printf.sprintf "no cross-node bus queueing (%d < %d)" numa4 flat4)
    true (numa4 < flat4)

let prop_numa_stall_accounting =
  let gen =
    QCheck.(small_list (triple (int_bound 7) (int_bound 511) (int_bound 2)))
  in
  QCheck.Test.make ~name:"stall accounting holds on a NUMA machine"
    ~count:200 gen (fun ops ->
      let c = cfg ~ncpus:8 ~nodes:4 ~node_miss_cost:7 ~node_c2c_cost:11 () in
      let cache = Cache.create c in
      let total = ref 0 in
      List.iter
        (fun (cpu, addr, k) ->
          let kind =
            match k with 0 -> Cache.Load | 1 -> Cache.Store | _ -> Cache.Rmw
          in
          total := !total + Cache.access cache ~cpu addr kind)
        ops;
      (Cache.total_stats cache).Cache.stall_cycles = !total)

(* Property: the NUMA machine keeps the MESI invariants at widths
   spanning several sharer words. *)
let prop_wide_coherence_invariants =
  let gen =
    QCheck.(
      small_list (triple (int_bound 99) (int_bound 511) (int_bound 2)))
  in
  QCheck.Test.make ~name:"MESI invariants at 100 CPUs across 4 nodes"
    ~count:100 gen (fun ops ->
      let c = cfg ~ncpus:100 ~nodes:4 () in
      let cache = Cache.create c in
      List.iter
        (fun (cpu, addr, k) ->
          let kind =
            match k with 0 -> Cache.Load | 1 -> Cache.Store | _ -> Cache.Rmw
          in
          ignore (Cache.access cache ~cpu addr kind))
        ops;
      List.for_all
        (fun (_, addr, _) ->
          let hs = Cache.holders_oracle cache addr in
          match Cache.dirty_owner_oracle cache addr with
          | Some o -> hs = [ o ]
          | None -> true)
        ops)

let suite =
  [
    Alcotest.test_case "CPU 63 registers as a sharer (overflow regression)"
      `Quick test_cpu63_registers_as_sharer;
    Alcotest.test_case "invalidation reaches CPU 63 (overflow regression)"
      `Quick test_invalidation_reaches_cpu63;
    Alcotest.test_case "exclusive store at CPU 63 is silent" `Quick
      test_exclusive_store_at_cpu63;
    Alcotest.test_case "sharer set scales to 512 CPUs" `Quick
      test_cap_lift_to_512;
    Alcotest.test_case "config cap guard" `Quick test_config_guard;
    Alcotest.test_case "scheduler runs 128 CPUs" `Quick
      test_machine_runs_128_cpus;
    Alcotest.test_case "fast path bit-identical at 80 CPUs" `Quick
      test_scheduled_equals_fast_at_80_cpus;
    Alcotest.test_case "node topology oracles" `Quick test_topology_oracles;
    Alcotest.test_case "local vs remote memory miss" `Quick
      test_local_vs_remote_miss;
    Alcotest.test_case "dirty transfer same vs cross node" `Quick
      test_c2c_same_vs_cross_node;
    Alcotest.test_case "three-hop directory transfer" `Quick
      test_c2c_three_hop_directory;
    Alcotest.test_case "upgrade crossing the interconnect" `Quick
      test_upgrade_cross_node;
    Alcotest.test_case "flat machine never pays NUMA costs" `Quick
      test_flat_machine_never_pays;
    Alcotest.test_case "per-node buses do not queue cross-node" `Quick
      test_per_node_buses;
    QCheck_alcotest.to_alcotest prop_numa_stall_accounting;
    QCheck_alcotest.to_alcotest prop_wide_coherence_invariants;
  ]
