(** Experiment E13 — the allocator laboratory's lock-based vs lock-free
    head-to-head: the paper's best-case alloc/free sweep ({!Fig7.run},
    the Figure 7 cell) run over the lock-free extension arms from
    PAPERS.md (Marotta et al.'s non-blocking buddy, Blelloch & Wei's
    constant-time fixed-size allocator) beside the paper's own
    allocators, plus two sweeps of its own: remote frees and a
    mixed-size storm.  Every cell is a {!Fig7.point} carrying the
    timed region's CAS-retry and helping counters, and conservation is
    checked after every cell's drain ({!Workload.Rig.check_drained}, in
    all three sweeps).

    Shape criteria (see EXPERIMENTS.md E13): bwfixed tracks the
    per-CPU-freelist allocators' near-linear scaling (its hot path is
    private); nbbuddy pays ~9 tree RMWs per pair, so it runs at a
    constant fraction of cookie's throughput but still scales linearly
    when claims do not collide.  Contention shows up where the workload
    puts it: the best-case sweep's steady state is private (all retry
    counters ~0 — the boot-spread scan hints doing their job), the
    remote-free flow drives bwfixed's shared stacks (CAS failure rates
    grow with pairs, well below 100%), and the mixed-size storm drives
    nbbuddy's conflict/rollback path (overlapping subtree claims). *)

val default_cpus : int list
(** [1; 2; 4; 8; 12; 16; 20; 26] — through the paper's full 26-CPU
    machine (Figure 7 stops at 25 measurable CPUs; the lock-free arms
    need no spare CPU for measurement). *)

val default_whichs : Baseline.Allocator.which list
(** Two lock-based reference arms (cookie, newkma) and the two
    lock-free arms. *)

val default_pairs : int list
(** [1; 2; 4; 8; 13] — up to the full 26-CPU machine. *)

val run_crosscpu :
  ?jobs:int ->
  ?whichs:Baseline.Allocator.which list ->
  ?pairs:int list ->
  ?blocks_per_pair:int ->
  ?bytes:int ->
  unit ->
  Fig7.point list
(** [run_crosscpu ()] is the remote-free sweep: every arm over the pair
    counts (each point's [ncpus] is its pair count, [ops] its
    transfers), each cell one {!Workload.Crosscpu.run}, where every
    free happens on a different CPU than its alloc.  The best-case
    sweep's steady state is CPU-local for both lock-free arms (zero CAS
    failures); this flow is what makes the retry counters earn their
    keep — bwfixed is forced through its shared Treiber stacks
    (refills/flushes), nbbuddy through cross-CPU unmark traffic.
    Cells are independent machines, deterministic at any [jobs].
    @raise Workload.Rig.Conservation on a failed drain check. *)

val run_storm :
  ?jobs:int ->
  ?whichs:Baseline.Allocator.which list ->
  ?cpus:int list ->
  ?iters:int ->
  ?seed:int ->
  unit ->
  Fig7.point list
(** [run_storm ()] is the mixed-size storm: every CPU randomly allocs
    and frees blocks of 16..512 bytes on one shared arena ([ops]
    counts the successful allocs and frees).  Overlapping subtree
    claims are what provoke nbbuddy's conflict/rollback path — the
    best-case sweep's steady state is private and the remote-free flow
    keeps each pair in a disjoint region, so this is the sweep where
    [conflicts] is non-zero.  By default it sweeps just the lock-free
    arms (lock-based arms carry no counters); cells are independent
    machines, deterministic at any [jobs].
    @raise Workload.Rig.Conservation on a failed drain check. *)

val print :
  best:Fig7.point list -> remote:Fig7.point list -> storm:Fig7.point list ->
  unit
(** [print ~best ~remote ~storm] prints E13: the best-case and
    remote-free throughput tables (through {!Fig7.print_table}), and
    one counter table per sweep (CAS attempts/failures/fail-rate, mark
    RMWs, conflicts, helps, refills and flushes per cell that has
    counters; the storm's with its ops/s, the remote-free one only when
    some arm carried counters). *)
