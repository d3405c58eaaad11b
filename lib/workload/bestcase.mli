(** The paper's best-case benchmark (Figure 7): a per-CPU loop of
    [kmem_alloc]/[kmem_free] pairs on one block size, exercising only
    the per-CPU caching layer once warm.  This is the one measured cell
    behind every simulated sweep: Figure 7 and E13 run it as it is, and
    E12 and E14 run it with deeper, touched bursts.

    The paper implements this as a timed system call invoked from a
    user program pinned to each CPU; we run a fixed iteration count per
    CPU and divide by the elapsed virtual time.  The loop itself is
    charged 20 cycles per allocation — the paper notes the measurement
    loop "amounts to as much as 40% for the faster algorithms". *)

type result = {
  pairs : int;  (** total alloc/free pairs across CPUs *)
  cycles : int;  (** elapsed virtual cycles of the timed bursts *)
  pairs_per_sec : float;
  cache : Sim.Cache.stats;  (** the timed bursts' accesses, all CPUs *)
  stats : Lockfree.Stats.t option;
      (** the timed bursts' retry counters (lock-free arms only) *)
}

val run :
  which:Baseline.Allocator.which ->
  ncpus:int ->
  iters:int ->
  bytes:int ->
  ?depth:int ->
  ?touch:int ->
  ?config:Sim.Config.t ->
  unit ->
  result
(** [run ~which ~ncpus ~iters ~bytes ()] boots [which] on a fresh
    [ncpus]-CPU machine ({!Rig.fresh_probed}; a given [config] has its
    [ncpus] overridden) and runs [iters/10 + 1] untimed bursts per CPU
    to warm the caches.  It then resets the clocks, the cache
    statistics and the probe's counters, and times [iters] bursts per
    CPU.  A burst makes [depth] allocations (default 1), writes the
    first [touch] words of each block (default 0), then frees the
    blocks in allocation order; the defaults are the paper's pair.
    Finally the probe's drain oracle checks the drained arm.
    @raise Rig.Alloc_failed if the arm cannot serve a block.
    @raise Rig.Conservation if the drain oracle finds a fault. *)

val access_pct : result -> int -> float
(** [access_pct r n] is [n] as a percentage of [r]'s accesses (loads,
    stores and RMWs); 0 when there were none. *)
