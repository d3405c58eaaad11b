type row = {
  line_words : int;
  ways : int;
  which : Baseline.Allocator.which;
  cycles_per_pair : float;
  miss_pct : float;
  c2c_pct : float;
  pairs_per_sec : float;
}

(* The two interesting axes from the paper's cache-profile analysis:
   line size against block/descriptor layout (false sharing), and
   associativity against the allocators' working sets (conflict
   misses).  Costs stay at the defaults so cycle deltas are geometry
   effects, not price changes. *)
let default_points =
  [
    (4, 0); (8, 0); (16, 0); (32, 0); (* line sweep, fully associative *)
    (8, 1); (8, 2); (8, 4); (* associativity sweep at the default line *)
  ]

let default_whichs = [ Baseline.Allocator.Newkma; Baseline.Allocator.Cookie ]

let cell ~line_words ~ways ~which ~ncpus ~iters ~depth ~bytes =
  (* Vary geometry around the ambient base (identical to [default]
     unless the driver installed one), so [--geometry miss=60 …] asks
     "the same sweep under a doubled memory-miss cost". *)
  let geometry =
    { (Sim.Geometry.ambient ()) with Sim.Geometry.line_words; ways }
  in
  let config =
    Sim.Config.make ~geometry ~memory_words:(2 * 1024 * 1024)
      ~uncached_words:512 ()
  in
  (* Every word of each block is written (a consumer actually using
     its memory): this is what makes line size and capacity bite, as
     the burst's working set, [depth * bytes] per CPU plus allocator
     metadata, overflows the smaller geometries. *)
  let r =
    Workload.Bestcase.run ~which ~ncpus ~iters ~bytes ~depth
      ~touch:(bytes / 4) ~config ()
  in
  let st = r.Workload.Bestcase.cache in
  {
    line_words;
    ways;
    which;
    (* Per-CPU rate: the CPUs run concurrently, so the elapsed clock
       over per-CPU pairs is the cost of one alloc/write/free pair. *)
    cycles_per_pair = float_of_int r.cycles /. float_of_int (iters * depth);
    miss_pct =
      Workload.Bestcase.access_pct r (st.Sim.Cache.misses + st.Sim.Cache.c2c);
    c2c_pct = Workload.Bestcase.access_pct r st.Sim.Cache.c2c;
    pairs_per_sec = r.pairs_per_sec;
  }

let run ?(jobs = 1) ?(points = default_points) ?(whichs = default_whichs)
    ?(ncpus = 8) ?(iters = 50) ?(depth = 96) ?(bytes = 256) () =
  let cells =
    List.concat_map
      (fun which -> List.map (fun (lw, w) -> (which, lw, w)) points)
      whichs
  in
  Parallel.map ~jobs
    (fun (which, line_words, ways) ->
      cell ~line_words ~ways ~which ~ncpus ~iters ~depth ~bytes)
    cells

let assoc_label ways = if ways = 0 then "full" else string_of_int ways

let print ?(ncpus = 8) ?(depth = 96) rows =
  Series.heading
    (Printf.sprintf
       "E12: cache-geometry sweep (%d-deep alloc/write/free bursts, %d CPUs)"
       depth ncpus);
  Series.table
    ~header:
      [ "alloc"; "line"; "assoc"; "cyc/pair"; "miss%"; "c2c%"; "pairs/s" ]
    (List.map
       (fun r ->
         [
           Baseline.Allocator.name_of r.which;
           string_of_int r.line_words;
           assoc_label r.ways;
           Series.f1 r.cycles_per_pair;
           Series.pct (r.miss_pct /. 100.);
           Series.pct (r.c2c_pct /. 100.);
           Series.sci r.pairs_per_sec;
         ])
       rows)
