(** Experiments E3/E4 — the paper's Figures 7 and 8: best-case
    alloc/free pairs per second versus number of CPUs for the four
    allocators (cookie, newkma, mk, oldkma).  Figure 8 is the same data
    on a semilog scale, so one run serves both.  E13's three sweeps
    ({!Lockfree_arms}) reuse this module's cell record, its sweep and
    its table.

    Shape criteria (see EXPERIMENTS.md): cookie and newkma scale
    near-linearly, cookie about twice newkma; mk and oldkma peak at one
    CPU and decline; single-CPU cookie is an order of magnitude
    (paper: ~15x) above oldkma. *)

type point = {
  which : Baseline.Allocator.which;
  ncpus : int;
      (** CPUs; producer/consumer pairs (2 CPUs each) in E13's
          remote-free sweep *)
  ops : int;
      (** operations completed in the timed region: alloc/free pairs
          here, transfers in the remote-free sweep, allocs plus frees
          in the storm *)
  ops_per_sec : float;
  stats : Lockfree.Stats.t option;
      (** the timed region's retry counters; [None] for lock-based
          arms *)
}
(** One cell of a sweep: one arm at one CPU (or pair) count, on its
    own machine. *)

val default_cpus : int list
(** [1; 2; 4; 8; 12; 16; 20; 25] — up to the paper's 25 measurable
    CPUs. *)

val sweep :
  jobs:int ->
  Baseline.Allocator.which list ->
  int list ->
  (Baseline.Allocator.which -> int -> point) ->
  point list
(** [sweep ~jobs whichs ns cell] is [cell which n] for every arm and
    count, arm-major.  Each cell builds its own machine, so [jobs]
    fans them out with [Parallel.map]; results are bit-identical at
    any job count. *)

val run :
  ?jobs:int ->
  ?whichs:Baseline.Allocator.which list ->
  ?cpus:int list ->
  ?iters:int ->
  ?bytes:int ->
  unit ->
  point list
(** [run ()] sweeps every allocator over [cpus], [iters] timed pairs
    per CPU of [bytes]-byte blocks (default 256), each cell one
    {!Workload.Bestcase.run}; [jobs] defaults to 1.  E13's best-case
    sweep is this run over its own arms and CPU counts.
    @raise Workload.Rig.Conservation on a failed drain check. *)

val print_table : ?lead:string -> string -> point list -> unit
(** [print_table heading points] prints [heading], then one row per CPU
    count (its column headed [lead], default ["cpus"]) and one column
    of operations per second per arm: the Figure 7 table, under another
    sweep's heading. *)

val print_linear : point list -> unit
(** Figure 7: rows of pairs/s per CPU count, one column per
    allocator. *)

val print_semilog : point list -> unit
(** Figure 8: same series as log10(pairs/s). *)

val speedup : point list -> which:Baseline.Allocator.which -> (int * float) list
(** [(ncpus, throughput_ncpus / throughput_1)] for one allocator. *)
