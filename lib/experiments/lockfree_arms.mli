(** Experiment E13 — the allocator laboratory's lock-based vs lock-free
    head-to-head: the paper's best-case alloc/free sweep (the Figure 7
    cell, {!Workload.Bestcase.run}) run over the lock-free extension
    arms from PAPERS.md (Marotta et al.'s non-blocking buddy, Blelloch &
    Wei's constant-time fixed-size allocator) beside the paper's own
    allocators, with CAS-retry and helping counters collected per cell
    and conservation checked after every cell's drain
    ({!Workload.Rig.check_drained}, in all three sweeps).  The
    best-case and remote-free throughput tables print through
    {!Fig7.print_table}.

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

type point = {
  which : Baseline.Allocator.which;
  ncpus : int;
  pairs : int;  (** alloc/free pairs completed in the timed region *)
  pairs_per_sec : float;
  stats : Lockfree.Stats.t option;
      (** timed-region retry counters; [None] for lock-based arms *)
}

val default_cpus : int list
(** [1; 2; 4; 8; 12; 16; 20; 26] — through the paper's full 26-CPU
    machine (Figure 7 stops at 25 measurable CPUs; the lock-free arms
    need no spare CPU for measurement). *)

val default_whichs : Baseline.Allocator.which list
(** Two lock-based reference arms (cookie, newkma) and the two
    lock-free arms. *)

val run :
  ?jobs:int ->
  ?whichs:Baseline.Allocator.which list ->
  ?cpus:int list ->
  ?iters:int ->
  ?bytes:int ->
  unit ->
  point list
(** [run ()] sweeps every arm over [cpus] with [iters] timed pairs per
    CPU of [bytes]-byte blocks (default 256).  Each cell is an
    independent machine; [jobs] fans cells across domains with
    results bit-identical at any job count.
    @raise Workload.Rig.Conservation on a failed drain check. *)

val print_retries : point list -> unit
(** CAS attempts/failures/fail-rate, mark RMWs, conflicts, helps,
    refills and flushes per (arm, ncpus) cell. *)

type remote_point = {
  rwhich : Baseline.Allocator.which;
  rpairs : int;  (** producer/consumer CPU pairs ([2 * rpairs] CPUs) *)
  transfers : int;
  transfers_per_sec : float;
  rstats : Lockfree.Stats.t option;
}
(** One cell of the remote-free companion sweep: the
    {!Workload.Crosscpu} producer/consumer workload, where every free
    happens on a different CPU than its alloc.  The best-case sweep's
    steady state is CPU-local for both lock-free arms (zero CAS
    failures); this flow is what makes the retry counters earn their
    keep — bwfixed is forced through its shared Treiber stacks
    (refills/flushes), nbbuddy through cross-CPU unmark traffic. *)

val default_pairs : int list
(** [1; 2; 4; 8; 13] — up to the full 26-CPU machine. *)

val run_crosscpu :
  ?jobs:int ->
  ?whichs:Baseline.Allocator.which list ->
  ?pairs:int list ->
  ?blocks_per_pair:int ->
  ?bytes:int ->
  unit ->
  remote_point list
(** [run_crosscpu ()] sweeps every arm over the pair counts, each cell
    an independent machine; [jobs] fans cells across domains with
    results bit-identical at any job count.
    @raise Workload.Rig.Conservation on a failed drain check. *)

val print_crosscpu : remote_point list -> unit
(** Transfers/s table plus, when any arm carried counters, the
    remote-free CAS-retry table. *)

type storm_point = {
  swhich : Baseline.Allocator.which;
  sncpus : int;
  sops : int;  (** successful allocs + frees across all CPUs *)
  sops_per_sec : float;
  sstats : Lockfree.Stats.t option;
}
(** One cell of the mixed-size storm: every CPU randomly allocs and
    frees blocks of 16..512 bytes on one shared arena.  Overlapping
    subtree claims are what provoke nbbuddy's conflict/rollback path —
    the best-case sweep's steady state is private and the remote-free
    flow keeps each pair in a disjoint region, so this is the sweep
    where [conflicts] is non-zero. *)

val run_storm :
  ?jobs:int ->
  ?whichs:Baseline.Allocator.which list ->
  ?cpus:int list ->
  ?iters:int ->
  ?seed:int ->
  unit ->
  storm_point list
(** [run_storm ()] sweeps the lock-free arms (by default just those —
    lock-based arms carry no counters) over the CPU counts; cells are
    independent machines, deterministic at any [jobs].
    @raise Workload.Rig.Conservation on a failed drain check. *)

val print_storm : storm_point list -> unit
(** Ops/s plus the full counter set per (arm, ncpus) cell. *)
