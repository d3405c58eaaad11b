type row = {
  which : Baseline.Allocator.which;
  ncpus : int;
  nodes : int;
  cycles_per_pair : float;
  remote_pct : float;
  c2c_pct : float;
  pairs_per_sec : float;
}

let default_whichs = Baseline.Allocator.[ Newkma; Numakma ]
let default_cpus = [ 32; 64; 128; 256 ]
let default_nodes = [ 1; 4 ]

(* Enough arena for the live bursts plus every per-CPU cache reserve at
   the big CPU counts (the sweep's whole point is 128-512 CPUs). *)
let memory_words_for ~ncpus = max (2 * 1024 * 1024) (ncpus * 16 * 1024)

let cell ~which ~ncpus ~nodes ~iters ~depth ~bytes =
  let geometry = { (Sim.Geometry.ambient ()) with Sim.Geometry.nodes } in
  let config =
    Sim.Config.make ~geometry ~ncpus
      ~memory_words:(memory_words_for ~ncpus)
      ~uncached_words:512 ()
  in
  (* Each burst is deeper than the per-CPU cache can hold (target =
     10 lists of 256 B blocks, so depth 64 overflows it several times
     over) and touches each block once, so every burst makes several
     global-layer round trips per CPU: the traffic whose lock and data
     lines convoy machine-wide on the flat layer and stay node-local
     with [numakma]. *)
  let r =
    Workload.Bestcase.run ~which ~ncpus ~iters ~bytes ~depth ~touch:1 ~config
      ()
  in
  {
    which;
    ncpus;
    nodes;
    cycles_per_pair =
      float_of_int r.Workload.Bestcase.cycles /. float_of_int (iters * depth);
    remote_pct = Workload.Bestcase.access_pct r r.cache.Sim.Cache.remote;
    c2c_pct = Workload.Bestcase.access_pct r r.cache.Sim.Cache.c2c;
    pairs_per_sec = r.pairs_per_sec;
  }

let run ?(jobs = 1) ?(whichs = default_whichs) ?(cpus = default_cpus)
    ?(nodes = default_nodes) ?(iters = 12) ?(depth = 64) ?(bytes = 256) () =
  let cells =
    List.concat_map
      (fun which ->
        List.concat_map
          (fun ncpus ->
            List.filter_map
              (fun nd -> if nd <= ncpus then Some (which, ncpus, nd) else None)
              nodes)
          cpus)
      whichs
  in
  Parallel.map ~jobs
    (fun (which, ncpus, nodes) -> cell ~which ~ncpus ~nodes ~iters ~depth ~bytes)
    cells

let print ?(depth = 64) rows =
  Series.heading
    (Printf.sprintf
       "E14: NUMA scaling, global-layer churn (%d-deep bursts, per-node vs \
        flat gblfree)"
       depth);
  Series.table
    ~header:
      [ "alloc"; "cpus"; "nodes"; "cyc/pair"; "remote%"; "c2c%"; "pairs/s" ]
    (List.map
       (fun r ->
         [
           Baseline.Allocator.name_of r.which;
           string_of_int r.ncpus;
           string_of_int r.nodes;
           Series.f1 r.cycles_per_pair;
           Series.pct (r.remote_pct /. 100.);
           Series.pct (r.c2c_pct /. 100.);
           Series.sci r.pairs_per_sec;
         ])
       rows)
