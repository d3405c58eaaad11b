let default_cpus = [ 1; 2; 4; 8; 12; 16; 20; 26 ]
let default_whichs =
  Baseline.Allocator.[ Cookie; Newkma; Nbbuddy; Bwfixed ]
let default_pairs = [ 1; 2; 4; 8; 13 ]

let run_crosscpu ?(jobs = 1) ?(whichs = default_whichs)
    ?(pairs = default_pairs) ?(blocks_per_pair = 400) ?(bytes = 256) () =
  Fig7.sweep ~jobs whichs pairs (fun which p ->
      let r =
        Workload.Crosscpu.run ~which ~pairs:p ~blocks_per_pair ~bytes ()
      in
      {
        Fig7.which;
        ncpus = p;
        ops = r.Workload.Crosscpu.transfers;
        ops_per_sec = r.transfers_per_sec;
        stats = r.stats;
      })

let storm_cell ~iters ~seed which ncpus =
  let m, a, probe =
    Workload.Rig.fresh_probed which
      ~config:(Workload.Rig.paper_config ~memory_words:(256 * 1024) ~ncpus ())
      ~ncpus ()
  in
  let ops = ref 0 in
  Sim.Machine.run_symmetric m ~ncpus (fun cpu ->
      (* Mixed sizes, random alloc/free order, everything on one shared
         arena: the shape that makes nbbuddy's overlapping subtree
         marks collide (conflict -> rollback), which neither the
         best-case sweep (private steady state) nor the remote-free
         flow (disjoint per-pair regions) can provoke. *)
      let seed = ref ((cpu * 7919) + seed) in
      let next () =
        seed := ((!seed * 25214903917) + 11) land ((1 lsl 48) - 1);
        !seed
      in
      let live = Array.make 8 (0, 0) in
      let mine = ref 0 in
      for _ = 1 to iters do
        let slot = next () mod 8 in
        let addr, bytes = live.(slot) in
        if addr <> 0 then begin
          a.Baseline.Allocator.free ~addr ~bytes;
          live.(slot) <- (0, 0);
          incr mine
        end
        else begin
          let bytes = 16 lsl (next () mod 6) in
          let addr = a.Baseline.Allocator.alloc ~bytes in
          if addr <> 0 then begin
            live.(slot) <- (addr, bytes);
            incr mine
          end
        end
      done;
      Array.iteri
        (fun i (addr, bytes) ->
          if addr <> 0 then begin
            a.Baseline.Allocator.free ~addr ~bytes;
            live.(i) <- (0, 0)
          end)
        live;
      ops := !ops + !mine);
  Workload.Rig.check_drained which ~ncpus probe;
  let cycles = Sim.Machine.elapsed m in
  {
    Fig7.which;
    ncpus;
    ops = !ops;
    ops_per_sec =
      Workload.Rig.pairs_per_sec (Sim.Machine.config m) ~pairs:!ops ~cycles;
    stats = Option.map Lockfree.Stats.copy probe.Baseline.Allocator.stats;
  }

let run_storm ?(jobs = 1) ?(whichs = Baseline.Allocator.lockfree)
    ?(cpus = default_cpus) ?(iters = 600) ?(seed = 13) () =
  Fig7.sweep ~jobs whichs cpus (storm_cell ~iters ~seed)

(* E13's counter tables: one row per cell that has counters, the arm,
   the cell's count under [lead], its operations under [ops] (and with
   [rate], their rate), then the lock-free counters. *)
let print_counters ~rate heading ~lead ~ops points =
  Series.heading heading;
  let row (p : Fig7.point) =
    Option.map
      (fun (s : Lockfree.Stats.t) ->
        let fail_rate =
          if s.cas_attempts = 0 then nan
          else float_of_int s.cas_failures /. float_of_int s.cas_attempts
        in
        [
          Baseline.Allocator.name_of p.which;
          string_of_int p.ncpus;
          string_of_int p.ops;
        ]
        @ (if rate then [ Series.sci p.ops_per_sec ] else [])
        @ [
            string_of_int s.cas_attempts;
            string_of_int s.cas_failures;
            Series.pct fail_rate;
            string_of_int s.mark_rmws;
            string_of_int s.conflicts;
            string_of_int s.helps;
            string_of_int s.refills;
            string_of_int s.flushes;
          ])
      p.stats
  in
  Series.table
    ~header:
      ([ "alloc"; lead; ops ]
      @ (if rate then [ ops ^ "/s" ] else [])
      @ [
          "cas"; "fail"; "fail%"; "marks"; "conflicts"; "helps"; "refills";
          "flushes";
        ])
    (List.filter_map row points)

let print ~best ~remote ~storm =
  Fig7.print_table
    "E13: lock-based vs lock-free, best-case alloc/free pairs per second" best;
  print_counters ~rate:false
    "E13: CAS-retry and helping counters (whole timed region)" ~lead:"cpus"
    ~ops:"pairs" best;
  Fig7.print_table ~lead:"pairs"
    "E13: cross-CPU producer/consumer (remote frees), transfers per second"
    remote;
  if List.exists (fun (p : Fig7.point) -> p.stats <> None) remote then
    print_counters ~rate:false
      "E13: remote-free CAS-retry and helping counters" ~lead:"pairs"
      ~ops:"xfers" remote;
  print_counters ~rate:true
    "E13: mixed-size storm (overlapping claims), CAS-retry counters"
    ~lead:"cpus" ~ops:"ops" storm
