(** Experiments E3/E4 — the paper's Figures 7 and 8: best-case
    alloc/free pairs per second versus number of CPUs for the four
    allocators (cookie, newkma, mk, oldkma).  Figure 8 is the same data
    on a semilog scale, so one run serves both.

    Shape criteria (see EXPERIMENTS.md): cookie and newkma scale
    near-linearly, cookie about twice newkma; mk and oldkma peak at one
    CPU and decline; single-CPU cookie is an order of magnitude
    (paper: ~15x) above oldkma. *)

type point = {
  which : Baseline.Allocator.which;
  ncpus : int;
  pairs_per_sec : float;
}

val default_cpus : int list
(** [1; 2; 4; 8; 12; 16; 20; 25] — up to the paper's 25 measurable
    CPUs. *)

val run :
  ?jobs:int ->
  ?whichs:Baseline.Allocator.which list ->
  ?cpus:int list ->
  ?iters:int ->
  ?bytes:int ->
  unit ->
  point list
(** [run ()] sweeps every allocator over [cpus], [iters] timed pairs
    per CPU of [bytes]-byte blocks (default 256).  Each
    (allocator, ncpus) cell is an independent simulation; [jobs]
    (default 1) fans them out with [Parallel.map] — results are
    bit-identical at any job count. *)

val print_table : ?lead:string -> string -> point list -> unit
(** [print_table heading points] prints [heading], then one row per CPU
    count (its column headed [lead], default ["cpus"]) and one column
    of pairs/s per arm: the Figure 7 table, under another sweep's
    heading. *)

val print_linear : point list -> unit
(** Figure 7: rows of pairs/s per CPU count, one column per
    allocator. *)

val print_semilog : point list -> unit
(** Figure 8: same series as log10(pairs/s). *)

val speedup : point list -> which:Baseline.Allocator.which -> (int * float) list
(** [(ncpus, throughput_ncpus / throughput_1)] for one allocator. *)
