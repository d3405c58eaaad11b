let loop_overhead = 20

type result = {
  pairs : int;
  cycles : int;
  pairs_per_sec : float;
  cache : Sim.Cache.stats;
  stats : Lockfree.Stats.t option;
}

let run ~which ~ncpus ~iters ~bytes ?(depth = 1) ?(touch = 0) ?config () =
  let m, a, probe = Rig.fresh_probed which ?config ~ncpus () in
  (* [n] bursts per CPU.  The block stash is per-CPU host state:
     sharing it across the simulated CPUs would corrupt the heap with
     cross-CPU double frees. *)
  let bursts n =
    Sim.Machine.run_symmetric m ~ncpus (fun _ ->
        let addrs = Array.make depth 0 in
        for _ = 1 to n do
          for i = 0 to depth - 1 do
            Sim.Machine.work loop_overhead;
            let addr = Rig.alloc which ~ncpus a ~bytes in
            addrs.(i) <- addr;
            for w = 0 to touch - 1 do
              Sim.Machine.write (addr + w) i
            done
          done;
          for i = 0 to depth - 1 do
            a.Baseline.Allocator.free ~addr:addrs.(i) ~bytes
          done
        done)
  in
  bursts ((iters / 10) + 1);
  (* Measure the steady state only: drop the warm-up's cycles, cache
     traffic and retries, so cold fills dilute nothing. *)
  Sim.Machine.reset_clocks m;
  Sim.Cache.reset_stats (Sim.Machine.cache m);
  Option.iter Lockfree.Stats.reset probe.Baseline.Allocator.stats;
  bursts iters;
  Rig.check_drained which ~ncpus probe;
  let cycles = Sim.Machine.elapsed m in
  let pairs = ncpus * iters * depth in
  {
    pairs;
    cycles;
    pairs_per_sec = Rig.pairs_per_sec (Sim.Machine.config m) ~pairs ~cycles;
    cache = Sim.Cache.total_stats (Sim.Machine.cache m);
    (* copy the counters out: the instance dies with this cell *)
    stats = Option.map Lockfree.Stats.copy probe.Baseline.Allocator.stats;
  }

let access_pct r n =
  let c = r.cache in
  let accesses = c.Sim.Cache.loads + c.Sim.Cache.stores + c.Sim.Cache.rmws in
  if accesses = 0 then 0.
  else 100. *. float_of_int n /. float_of_int accesses
