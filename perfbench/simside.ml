(* The simulated side: newkma on the simulated Symmetry, driven by
   [Workload.Trace.replay].  One repetition boots a fresh machine,
   replays the seeded warm-up, resets every counter, replays the timed
   trace, and checks the drained heap outside the timed window.
   Simulated results are a pure function of the seed: repetitions
   differ only in host time. *)

module T = Workload.Trace

let config (s : Inputs.sim) =
  (* An explicit geometry: the ambient one may come from KMA_GEOMETRY. *)
  Sim.Config.make ~geometry:Sim.Geometry.default ~ncpus:s.ncpus
    ~memory_words:s.memory_words ~uncached_words:512 ()

let geometry = Sim.Geometry.to_string Sim.Geometry.default

let newkma kmem : Baseline.Allocator.t =
  {
    name = "newkma";
    alloc =
      (fun ~bytes ->
        match Kma.Kmem.try_alloc kmem ~bytes with Some a -> a | None -> 0);
    free = (fun ~addr ~bytes -> Kma.Kmem.free kmem ~addr ~bytes);
  }

(* --- spans ----------------------------------------------------------

   One span per [try_alloc]/[free] call, recorded by a wrapper around
   the allocator handle.  CPU and simulated clock come from
   [Sim.Machine.running], which is host-side and no yield point, so
   tracing costs zero simulated cycles.  The request id is the trace
   event's object id, recovered from each CPU's position in its own
   event sequence (replay issues every CPU's events in trace order). *)

type spans = {
  is_alloc : bool array;
  cpu : int array;
  size : int array;
  req : int array;
  sim0 : int array;
  sim1 : int array;
  host0 : int array;
  host1 : int array;
  mutable n : int;
}

let spans_create cap =
  let z () = Array.make cap 0 in
  {
    is_alloc = Array.make cap false;
    cpu = z (); size = z (); req = z (); sim0 = z (); sim1 = z ();
    host0 = z (); host1 = z (); n = 0;
  }

let traced sp (trace : T.t) (a : Baseline.Allocator.t) : Baseline.Allocator.t =
  let ncpus = T.ncpus trace in
  let ids =
    Array.map (fun l -> Array.of_list (List.rev l))
      (List.fold_left
         (fun acc e ->
           acc.(T.cpu_of e) <- T.id_of e :: acc.(T.cpu_of e);
           acc)
         (Array.make ncpus []) trace)
  in
  let cursor = Array.make ncpus 0 in
  let clock () = match Sim.Machine.running () with Some c -> c | None -> (0, 0) in
  let span ~is_alloc ~bytes f =
    let cpu, s0 = clock () in
    let h0 = Clock.ns () in
    let r = f () in
    let h1 = Clock.ns () in
    let _, s1 = clock () in
    let i = sp.n in
    sp.is_alloc.(i) <- is_alloc;
    sp.cpu.(i) <- cpu;
    sp.size.(i) <- bytes;
    sp.req.(i) <- ids.(cpu).(cursor.(cpu));
    cursor.(cpu) <- cursor.(cpu) + 1;
    sp.sim0.(i) <- s0;
    sp.sim1.(i) <- s1;
    sp.host0.(i) <- h0;
    sp.host1.(i) <- h1;
    sp.n <- i + 1;
    r
  in
  {
    a with
    alloc = (fun ~bytes -> span ~is_alloc:true ~bytes (fun () -> a.alloc ~bytes));
    free =
      (fun ~addr ~bytes ->
        span ~is_alloc:false ~bytes (fun () -> a.free ~addr ~bytes));
  }

(* --- one repetition ------------------------------------------------- *)

type rep = {
  setup_s : float;  (* machine, boot and warm-up *)
  host_s : float;  (* the timed replay, in host CPU seconds *)
  ops : int;
  cycles : int;  (* simulated elapsed *)
  cpu_cycles : int;  (* summed over CPUs *)
  lat : int array;  (* per-call latency, sorted *)
  cache : Sim.Cache.stats;
  kstats : Kma.Kstats.t;
  vm_grants : int;
  vm_reclaims : int;
  vm_peak : int;
  failed : int;  (* failures, skipped frees, leaks, heap violations *)
  spans : spans option;
  cfg : Sim.Config.t;
}

let sum_sizes k f = Array.fold_left (fun n s -> n + f s) 0 k.Kma.Kstats.sizes

let rep ?(trace = false) (s : Inputs.sim) =
  let t0 = Clock.ns () in
  let cfg = config s in
  let m = Sim.Machine.create cfg in
  let kmem = Kma.Kmem.create m ~params:(Kma.Params.auto ~memory_words:s.memory_words) () in
  let a = newkma kmem in
  let warm = T.replay m s.warm a in
  Sim.Machine.reset_clocks m;
  Sim.Cache.reset_stats (Sim.Machine.cache m);
  Kma.Kstats.reset (Kma.Kmem.stats kmem);
  Sim.Vmsys.reset_counters (Kma.Kmem.vmsys kmem);
  let nops = List.length s.trace in
  let lat = Array.make nops 0 and k = ref 0 in
  let on_op ~cpu:_ ~alloc:_ ~latency =
    lat.(!k) <- latency;
    incr k
  in
  let spans, a =
    if trace then
      let sp = spans_create nops in
      (Some sp, traced sp s.trace a)
    else (None, a)
  in
  let t1 = Clock.ns () in
  (* Process CPU time: the replay runs alone on the main domain, and
     CPU time leaves out what the hypervisor steals from the host. *)
  let c1 = Sys.time () in
  let r = T.replay ~on_op m s.trace a in
  let host_s = Sys.time () -. c1 in
  Array.sort compare lat;
  let ks = Kma.Kmem.stats kmem and vm = Kma.Kmem.vmsys kmem in
  let leaked =
    abs (sum_sizes ks (fun p -> p.allocs) - sum_sizes ks (fun p -> p.frees))
    + abs (ks.large_allocs - ks.large_frees)
  in
  let violations = List.length (Heapcheck.check kmem) in
  let cpu_cycles = ref 0 in
  for cpu = 0 to s.ncpus - 1 do
    cpu_cycles := !cpu_cycles + Sim.Machine.cpu_time m ~cpu
  done;
  {
    setup_s = Clock.s_of_ns (t1 - t0);
    host_s;
    ops = r.ops;
    cycles = r.cycles;
    cpu_cycles = !cpu_cycles;
    lat;
    cache = Sim.Cache.total_stats (Sim.Machine.cache m);
    kstats = ks;
    vm_grants = Sim.Vmsys.grant_count vm;
    vm_reclaims = Sim.Vmsys.reclaim_count vm;
    vm_peak = Sim.Vmsys.peak_granted vm;
    failed =
      warm.failures + warm.skipped_frees + r.failures + r.skipped_frees
      + leaked + violations;
    spans;
    cfg;
  }

(* Everything simulated a repetition reports; two repetitions of one
   input must agree on all of it. *)
let signature r =
  ( (r.ops, r.cycles, r.cpu_cycles, r.lat, r.cache, r.kstats),
    (r.vm_grants, r.vm_reclaims, r.vm_peak) )

let accesses (c : Sim.Cache.stats) = c.loads + c.stores + c.rmws

(* --- metrics -------------------------------------------------------- *)

let per_op r x = float_of_int x /. float_of_int (max 1 r.ops)
let per_kop r x = 1000. *. per_op r x
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let end_to_end r ~host_s =
  [
    ("sim_ops_per_s", "1/s",
     float_of_int r.ops /. Sim.Config.seconds_of_cycles r.cfg r.cycles);
    ("sim_op_p50_cycles", "cycles", Lat.quantile_sorted r.lat 0.50);
    ("sim_op_p99_cycles", "cycles", Lat.quantile_sorted r.lat 0.99);
    ("sim_op_p999_cycles", "cycles", Lat.quantile_sorted r.lat 0.999);
    ("sim_maccess_per_host_s", "M/s",
     float_of_int (accesses r.cache) /. host_s /. 1e6);
  ]

let span_quantiles sp ~alloc =
  let d = ref [] in
  for i = 0 to sp.n - 1 do
    if sp.is_alloc.(i) = alloc then d := (sp.sim1.(i) - sp.sim0.(i)) :: !d
  done;
  let a = Array.of_list !d in
  Array.sort compare a;
  (Lat.quantile_sorted a 0.50, Lat.quantile_sorted a 0.99)

let per_layer r ~host_s ~traced_host_s sp =
  let c = r.cache and k = r.kstats in
  let ks f = sum_sizes k f in
  let lat_sum = Array.fold_left ( + ) 0 r.lat in
  let a50, a99 = span_quantiles sp ~alloc:true in
  let f50, f99 = span_quantiles sp ~alloc:false in
  let open Kma.Kstats in
  [
    ("sim.host_ns_per_access", "ns", host_s *. 1e9 /. float_of_int (max 1 (accesses c)));
    ("sim.accesses_per_op", "count", per_op r (accesses c));
    ("sim.cache.hit_rate", "ratio", ratio c.hits (accesses c));
    ("sim.cache.miss_per_op", "count", per_op r c.misses);
    ("sim.cache.c2c_per_op", "count", per_op r c.c2c);
    ("sim.cache.upgrade_per_op", "count", per_op r c.upgrades);
    ("sim.cache.inval_per_op", "count", per_op r c.invalidations);
    ("sim.cache.evict_per_op", "count", per_op r c.evictions);
    ("sim.cache.stall_cycles_per_op", "cycles", per_op r c.stall_cycles);
    ("sim.rmw_per_op", "count", per_op r c.rmws);
    ("sim.vmsys.grants_per_kop", "count", per_kop r r.vm_grants);
    ("sim.vmsys.reclaims_per_kop", "count", per_kop r r.vm_reclaims);
    ("sim.vmsys.peak_pages", "pages", float_of_int r.vm_peak);
    ("sim.replay.wait_share", "ratio", ratio (r.cpu_cycles - lat_sum) r.cpu_cycles);
    ("kma.alloc_p50_cycles", "cycles", a50);
    ("kma.alloc_p99_cycles", "cycles", a99);
    ("kma.free_p50_cycles", "cycles", f50);
    ("kma.free_p99_cycles", "cycles", f99);
    ("kma.percpu.alloc_miss_rate", "ratio", ratio (ks (fun p -> p.alloc_misses)) (ks (fun p -> p.allocs)));
    ("kma.percpu.free_miss_rate", "ratio", ratio (ks (fun p -> p.free_misses)) (ks (fun p -> p.frees)));
    ("kma.global.gets_per_kop", "count", per_kop r (ks (fun p -> p.gbl_gets)));
    ("kma.global.puts_per_kop", "count", per_kop r (ks (fun p -> p.gbl_puts)));
    ("kma.global.get_miss_rate", "ratio", ratio (ks (fun p -> p.gbl_get_misses)) (ks (fun p -> p.gbl_gets)));
    ("kma.global.put_miss_rate", "ratio", ratio (ks (fun p -> p.gbl_put_misses)) (ks (fun p -> p.gbl_puts)));
    ("kma.page.block_gets_per_kop", "count", per_kop r (ks (fun p -> p.page_block_gets)));
    ("kma.page.block_puts_per_kop", "count", per_kop r (ks (fun p -> p.page_block_puts)));
    ("kma.page.pages_grabbed_per_kop", "count", per_kop r (ks (fun p -> p.pages_grabbed)));
    ("kma.page.pages_returned_per_kop", "count", per_kop r (ks (fun p -> p.pages_returned)));
    ("kma.vmblk.large_per_kop", "count", per_kop r (k.large_allocs + k.large_frees));
    ("trace.overhead_sim_pct", "%", 100. *. ((traced_host_s /. host_s) -. 1.));
  ]

(* --- span output ---------------------------------------------------- *)

let write_spans oc sp =
  for i = 0 to sp.n - 1 do
    Printf.fprintf oc "sim\t%d\t%s\t-\t%d\t%d\t%d\t%d\tcpu=%d bytes=%d sim_start=%d sim_end=%d\n"
      i (if sp.is_alloc.(i) then "kma.try_alloc" else "kma.free")
      sp.req.(i) sp.host0.(i) sp.host1.(i) (sp.host1.(i) - sp.host0.(i))
      sp.cpu.(i) sp.size.(i) sp.sim0.(i) sp.sim1.(i)
  done
