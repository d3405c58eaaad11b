open Sim

let cfg ?(ncpus = 4) ?(cache_lines = 0) () =
  Config.make ~ncpus
    ~geometry:{ Geometry.default with cache_lines }
    ~memory_words:4096 ()

let test_cold_miss_then_hit () =
  let c = cfg () in
  let cache = Cache.create c in
  let cost1 = Cache.access cache ~cpu:0 100 Cache.Load in
  let cost2 = Cache.access cache ~cpu:0 100 Cache.Load in
  Alcotest.(check int) "cold miss" c.Config.geometry.miss_cost cost1;
  Alcotest.(check int) "hit" 0 cost2;
  let st = Cache.stats cache ~cpu:0 in
  Alcotest.(check int) "one miss" 1 st.Cache.misses;
  Alcotest.(check int) "one hit" 1 st.Cache.hits

let test_same_line_hits () =
  let c = cfg () in
  let cache = Cache.create c in
  ignore (Cache.access cache ~cpu:0 64 Cache.Load);
  (* words 64..71 share the 8-word line *)
  let cost = Cache.access cache ~cpu:0 71 Cache.Load in
  Alcotest.(check int) "same line is a hit" 0 cost;
  let cost' = Cache.access cache ~cpu:0 72 Cache.Load in
  Alcotest.(check int) "next line misses" c.Config.geometry.miss_cost cost'

let test_c2c_transfer () =
  let c = cfg () in
  let cache = Cache.create c in
  ignore (Cache.access cache ~cpu:0 200 Cache.Store);
  Alcotest.(check (option int)) "cpu0 dirty" (Some 0)
    (Cache.dirty_owner_oracle cache 200);
  let cost = Cache.access cache ~cpu:1 200 Cache.Load in
  Alcotest.(check int) "dirty line costs c2c" c.Config.geometry.c2c_cost cost;
  Alcotest.(check (option int)) "clean after transfer" None
    (Cache.dirty_owner_oracle cache 200);
  Alcotest.(check (list int)) "both hold it" [ 0; 1 ] (Cache.holders_oracle cache 200)

let test_silent_exclusive_upgrade () =
  let c = cfg () in
  let cache = Cache.create c in
  ignore (Cache.access cache ~cpu:0 300 Cache.Load);
  let cost = Cache.access cache ~cpu:0 300 Cache.Store in
  Alcotest.(check int) "private store is free" 0 cost

let test_shared_store_upgrades () =
  let c = cfg () in
  let cache = Cache.create c in
  ignore (Cache.access cache ~cpu:0 300 Cache.Load);
  ignore (Cache.access cache ~cpu:1 300 Cache.Load);
  ignore (Cache.access cache ~cpu:2 300 Cache.Load);
  let cost = Cache.access cache ~cpu:0 300 Cache.Store in
  Alcotest.(check int) "upgrade round" c.Config.geometry.upgrade_cost cost;
  Alcotest.(check (list int)) "others invalidated" [ 0 ]
    (Cache.holders_oracle cache 300);
  let st = Cache.stats cache ~cpu:0 in
  Alcotest.(check int) "two copies invalidated" 2 st.Cache.invalidations

let test_store_to_dirty_elsewhere () =
  let c = cfg () in
  let cache = Cache.create c in
  ignore (Cache.access cache ~cpu:0 300 Cache.Store);
  let cost = Cache.access cache ~cpu:1 300 Cache.Store in
  Alcotest.(check int) "steal dirty line" c.Config.geometry.c2c_cost cost;
  Alcotest.(check (option int)) "cpu1 owns" (Some 1)
    (Cache.dirty_owner_oracle cache 300);
  Alcotest.(check (list int)) "only cpu1" [ 1 ] (Cache.holders_oracle cache 300)

let test_rmw_counts () =
  let c = cfg () in
  let cache = Cache.create c in
  ignore (Cache.access cache ~cpu:0 10 Cache.Rmw);
  let st = Cache.stats cache ~cpu:0 in
  Alcotest.(check int) "rmw counted" 1 st.Cache.rmws;
  Alcotest.(check (option int)) "rmw dirties" (Some 0)
    (Cache.dirty_owner_oracle cache 10)

let test_bounded_eviction () =
  let c = cfg ~cache_lines:4 () in
  let cache = Cache.create c in
  (* Touch 5 distinct lines; the first must be evicted FIFO. *)
  for i = 0 to 4 do
    ignore (Cache.access cache ~cpu:0 (i * 8) Cache.Load)
  done;
  Alcotest.(check int) "resident capped" 4 (Cache.resident_oracle cache ~cpu:0);
  Alcotest.(check (list int)) "line 0 evicted" [] (Cache.holders_oracle cache 0);
  let cost = Cache.access cache ~cpu:0 0 Cache.Load in
  Alcotest.(check int) "re-fetch misses" c.Config.geometry.miss_cost cost;
  let st = Cache.stats cache ~cpu:0 in
  Alcotest.(check int) "evictions counted" 2 st.Cache.evictions;
  (* One set's queue through 700 inserts, past two chunk boundaries:
     CPU 0 loads 700 distinct lines, and CPU 1 steals every third one
     at once, leaving a stale entry behind in CPU 0's queue.  Eviction
     is FIFO over the live entries, so CPU 0 ends holding the [lines]
     latest lines nobody stole, and evicted every other unstolen one. *)
  let n = 700 and stolen k = k mod 3 = 1 in
  let unstolen = List.filter (fun k -> not (stolen k)) (List.init n Fun.id) in
  List.iter
    (fun lines ->
      let cache =
        Cache.create
          (Config.make ~ncpus:2
             ~geometry:{ Geometry.default with cache_lines = lines }
             ~memory_words:8192 ())
      in
      for k = 0 to n - 1 do
        ignore (Cache.access cache ~cpu:0 (k * 8) Cache.Load);
        if stolen k then
          ignore (Cache.access cache ~cpu:1 (k * 8) Cache.Store)
      done;
      let kept =
        List.filteri (fun i _ -> i >= List.length unstolen - lines) unstolen
      in
      for k = 0 to n - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "%d lines: line %d held by CPU 0" lines k)
          (List.mem k kept)
          (List.mem 0 (Cache.holders_oracle cache (k * 8)))
      done;
      Alcotest.(check int) "resident capped" lines
        (Cache.resident_oracle cache ~cpu:0);
      Alcotest.(check int) "every other unstolen line evicted"
        (List.length unstolen - lines)
        (Cache.stats cache ~cpu:0).Cache.evictions)
    [ 4; 1 ]

let test_trace_hook () =
  let c = cfg () in
  let cache = Cache.create c in
  let seen = ref [] in
  Cache.set_trace cache
    (Some (fun ~cpu ~addr _kind ~cost -> seen := (cpu, addr, cost) :: !seen));
  ignore (Cache.access cache ~cpu:2 40 Cache.Load);
  ignore (Cache.access cache ~cpu:2 40 Cache.Load);
  Cache.set_trace cache None;
  ignore (Cache.access cache ~cpu:2 48 Cache.Load);
  Alcotest.(check (list (triple int int int)))
    "trace captured"
    [ (2, 40, 0); (2, 40, c.Config.geometry.miss_cost) ]
    !seen

let test_uncached_region () =
  let c =
    Config.make ~memory_words:4096 ~uncached_words:512 ()
  in
  let cache = Cache.create c in
  (* Below the threshold: normal caching. *)
  ignore (Cache.access cache ~cpu:0 100 Cache.Load);
  Alcotest.(check int) "cached hit" 0 (Cache.access cache ~cpu:0 100 Cache.Load);
  (* At and above the threshold: every access pays the bus. *)
  let a = 4096 - 512 in
  Alcotest.(check int) "uncached read" 40 (Cache.access cache ~cpu:0 a Cache.Load);
  Alcotest.(check int) "uncached again" 40
    (Cache.access cache ~cpu:0 a Cache.Load);
  Alcotest.(check int) "uncached write" 40
    (Cache.access cache ~cpu:0 (4095) Cache.Store);
  Alcotest.(check (list int)) "never cached" [] (Cache.holders_oracle cache a)

let test_reset_stats () =
  let cache = Cache.create (cfg ()) in
  ignore (Cache.access cache ~cpu:0 0 Cache.Store);
  Cache.reset_stats cache;
  let st = Cache.stats cache ~cpu:0 in
  Alcotest.(check int) "stores zeroed" 0 st.Cache.stores;
  Alcotest.(check int) "stalls zeroed" 0 st.Cache.stall_cycles

(* Property: at most one dirty owner per line, and the dirty owner always
   holds a copy; resident counts never exceed a bounded capacity. *)
let prop_coherence_invariants =
  let gen =
    QCheck.(
      small_list (triple (int_bound 3) (int_bound 511) (int_bound 2)))
  in
  QCheck.Test.make ~name:"MESI invariants under random traffic" ~count:300 gen
    (fun ops ->
      let c = cfg ~cache_lines:8 () in
      let cache = Cache.create c in
      List.iter
        (fun (cpu, addr, k) ->
          let kind =
            match k with 0 -> Cache.Load | 1 -> Cache.Store | _ -> Cache.Rmw
          in
          ignore (Cache.access cache ~cpu addr kind))
        ops;
      (* Check invariants over every line touched. *)
      List.for_all
        (fun (_, addr, _) ->
          let hs = Cache.holders_oracle cache addr in
          (match Cache.dirty_owner_oracle cache addr with
          | Some o -> hs = [ o ]
          | None -> true)
          && List.for_all (fun cpu -> Cache.resident_oracle cache ~cpu <= 8) hs)
        ops)

(* Property: total stall cycles recorded equal the sum of returned costs. *)
let prop_stall_accounting =
  let gen =
    QCheck.(small_list (triple (int_bound 3) (int_bound 511) (int_bound 2)))
  in
  QCheck.Test.make ~name:"stall cycles equal sum of access costs" ~count:200
    gen (fun ops ->
      let cache = Cache.create (cfg ()) in
      let total = ref 0 in
      List.iter
        (fun (cpu, addr, k) ->
          let kind =
            match k with 0 -> Cache.Load | 1 -> Cache.Store | _ -> Cache.Rmw
          in
          total := !total + Cache.access cache ~cpu addr kind)
        ops;
      (Cache.total_stats cache).Cache.stall_cycles = !total)

let suite =
  [
    Alcotest.test_case "cold miss then hit" `Quick test_cold_miss_then_hit;
    Alcotest.test_case "same line hits, next line misses" `Quick
      test_same_line_hits;
    Alcotest.test_case "cache-to-cache transfer" `Quick test_c2c_transfer;
    Alcotest.test_case "silent exclusive upgrade" `Quick
      test_silent_exclusive_upgrade;
    Alcotest.test_case "shared store pays upgrade" `Quick
      test_shared_store_upgrades;
    Alcotest.test_case "store steals dirty line" `Quick
      test_store_to_dirty_elsewhere;
    Alcotest.test_case "rmw counted and dirties" `Quick test_rmw_counts;
    Alcotest.test_case "bounded cache evicts FIFO" `Quick
      test_bounded_eviction;
    Alcotest.test_case "trace hook sees accesses" `Quick test_trace_hook;
    Alcotest.test_case "uncached region bypasses cache" `Quick
      test_uncached_region;
    Alcotest.test_case "reset_stats" `Quick test_reset_stats;
    QCheck_alcotest.to_alcotest prop_coherence_invariants;
    QCheck_alcotest.to_alcotest prop_stall_accounting;
  ]
