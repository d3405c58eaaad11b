type point = {
  which : Baseline.Allocator.which;
  ncpus : int;
  pairs : int;
  pairs_per_sec : float;
  stats : Lockfree.Stats.t option;
}

let default_cpus = [ 1; 2; 4; 8; 12; 16; 20; 26 ]
let default_whichs =
  Baseline.Allocator.[ Cookie; Newkma; Nbbuddy; Bwfixed ]

let run ?(jobs = 1) ?(whichs = default_whichs) ?(cpus = default_cpus)
    ?(iters = 2000) ?(bytes = 256) () =
  Parallel.map ~jobs
    (fun (which, ncpus) ->
      let r = Workload.Bestcase.run ~which ~ncpus ~iters ~bytes () in
      {
        which;
        ncpus;
        pairs = r.Workload.Bestcase.pairs;
        pairs_per_sec = r.pairs_per_sec;
        stats = r.stats;
      })
    (List.concat_map
       (fun which -> List.map (fun ncpus -> (which, ncpus)) cpus)
       whichs)

type storm_point = {
  swhich : Baseline.Allocator.which;
  sncpus : int;
  sops : int;
  sops_per_sec : float;
  sstats : Lockfree.Stats.t option;
}

let storm_cell ~which ~ncpus ~iters ~seed =
  let m =
    Sim.Machine.create
      (Workload.Rig.paper_config ~memory_words:(256 * 1024) ~ncpus ())
  in
  let a, probe = Baseline.Allocator.create_probed which m in
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
    swhich = which;
    sncpus = ncpus;
    sops = !ops;
    sops_per_sec =
      Workload.Rig.pairs_per_sec (Sim.Machine.config m) ~pairs:!ops ~cycles;
    sstats = Option.map Lockfree.Stats.copy probe.Baseline.Allocator.stats;
  }

let run_storm ?(jobs = 1) ?(whichs = Baseline.Allocator.lockfree)
    ?(cpus = default_cpus) ?(iters = 600) ?(seed = 13) () =
  Parallel.map ~jobs
    (fun (which, ncpus) -> storm_cell ~which ~ncpus ~iters ~seed)
    (List.concat_map
       (fun which -> List.map (fun ncpus -> (which, ncpus)) cpus)
       whichs)

(* The lock-free counter columns every E13 counter table ends with, and
   a table of one row per cell that has counters: the columns [header]
   names, then the counters. *)
let counter_table header cells =
  let row (lead, stats) =
    Option.map
      (fun (s : Lockfree.Stats.t) ->
        let fail_rate =
          if s.cas_attempts = 0 then nan
          else float_of_int s.cas_failures /. float_of_int s.cas_attempts
        in
        lead
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
      stats
  in
  Series.table
    ~header:
      (header
      @ [
          "cas"; "fail"; "fail%"; "marks"; "conflicts"; "helps"; "refills";
          "flushes";
        ])
    (List.filter_map row cells)

let print_storm points =
  Series.heading
    "E13: mixed-size storm (overlapping claims), CAS-retry counters";
  counter_table
    [ "alloc"; "cpus"; "ops"; "ops/s" ]
    (List.map
       (fun p ->
         ( [
             Baseline.Allocator.name_of p.swhich;
             string_of_int p.sncpus;
             string_of_int p.sops;
             Series.sci p.sops_per_sec;
           ],
           p.sstats ))
       points)

type remote_point = {
  rwhich : Baseline.Allocator.which;
  rpairs : int;
  transfers : int;
  transfers_per_sec : float;
  rstats : Lockfree.Stats.t option;
}

let default_pairs = [ 1; 2; 4; 8; 13 ]

let run_crosscpu ?(jobs = 1) ?(whichs = default_whichs)
    ?(pairs = default_pairs) ?(blocks_per_pair = 400) ?(bytes = 256) () =
  Parallel.map ~jobs
    (fun (rwhich, p) ->
      let r =
        Workload.Crosscpu.run ~which:rwhich ~pairs:p ~blocks_per_pair ~bytes
          ()
      in
      {
        rwhich;
        rpairs = p;
        transfers = r.Workload.Crosscpu.transfers;
        transfers_per_sec = r.Workload.Crosscpu.transfers_per_sec;
        rstats = r.Workload.Crosscpu.stats;
      })
    (List.concat_map
       (fun w -> List.map (fun p -> (w, p)) pairs)
       whichs)

let print_crosscpu points =
  Fig7.print_table ~lead:"pairs"
    "E13: cross-CPU producer/consumer (remote frees), transfers per second"
    (List.map
       (fun p ->
         {
           Fig7.which = p.rwhich;
           ncpus = p.rpairs;
           pairs_per_sec = p.transfers_per_sec;
         })
       points);
  if List.exists (fun p -> p.rstats <> None) points then begin
    Series.heading "E13: remote-free CAS-retry and helping counters";
    counter_table
      [ "alloc"; "pairs"; "xfers" ]
      (List.map
         (fun p ->
           ( [
               Baseline.Allocator.name_of p.rwhich;
               string_of_int p.rpairs;
               string_of_int p.transfers;
             ],
             p.rstats ))
         points)
  end

let print_retries points =
  Series.heading "E13: CAS-retry and helping counters (whole timed region)";
  counter_table
    [ "alloc"; "cpus"; "pairs" ]
    (List.map
       (fun p ->
         ( [
             Baseline.Allocator.name_of p.which;
             string_of_int p.ncpus;
             string_of_int p.pairs;
           ],
           p.stats ))
       points)
