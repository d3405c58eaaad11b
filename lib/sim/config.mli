(** Machine parameters for the simulated shared-memory multiprocessor.

    All costs are in CPU cycles.  The defaults are loosely calibrated to a
    50 MHz 80486-based Sequent Symmetry: a fast pipeline relative to its
    bus, small per-CPU caches, and expensive atomic read-modify-write
    operations.  Absolute values are not meant to match the paper's
    microsecond numbers; they are chosen so that the *relative* behaviour
    (coherence-miss domination, lock-contention collapse) is realistic.

    The cache shape and the per-access costs (line size, capacity,
    associativity, miss, remote-dirty, upgrade and RMW costs, NUMA
    nodes) are one {!Geometry.t}, the only way to set them: the drivers
    parse one from [--geometry], which turns the paper's Design section
    cache-profile analysis into an experiment axis (E12).  The costs no
    experiment varies (interrupt toggle, spin pause, bus occupancy,
    uncached access, clock rate) are constants of the module that
    charges them. *)

type t = {
  ncpus : int;  (** number of simulated CPUs *)
  memory_words : int;  (** size of simulated physical memory, in words *)
  geometry : Geometry.t;  (** cache shape and per-access costs *)
  uncached_words : int;
      (** size of the uncacheable region at the top of memory (device
          registers); every access there goes to the bus *)
}

val make :
  ?geometry:Geometry.t ->
  ?ncpus:int ->
  ?memory_words:int ->
  ?uncached_words:int ->
  unit ->
  t
(** [make ()] is a 4-CPU machine with 4 MiW of memory and
    {!Geometry.default} caches (8-word (32-byte) lines, 256-line (8 KiB)
    fully-associative per-CPU caches) and no uncacheable region, with
    the given fields overridden.

    @raise Invalid_argument if a field is out of range (e.g. [ncpus < 1],
    a geometry {!Geometry.validate} rejects, or [memory_words] not a
    whole number of cache lines). *)

val mhz : int
(** Simulated clock rate (50 MHz), for converting cycles to seconds. *)

val seconds_of_cycles : t -> int -> float
(** [seconds_of_cycles t c] converts a cycle count to seconds at {!mhz}. *)

val validate : t -> unit
(** [validate t] checks the invariants documented in {!make}, including
    {!Geometry.validate} on [t.geometry], [ncpus <=] {!max_cpus} and
    [nodes <= ncpus].
    @raise Invalid_argument on violation. *)

val max_cpus : int
(** Hard upper bound on [ncpus] (1024).  The cache sharer set is
    width-independent, so this cap exists only for the scheduler's
    packed heap keys; {!Machine} statically asserts its id field is
    wide enough, so a future mismatch fails at module init, not as
    silent bitmask corruption. *)

val node_of : t -> int -> int
(** [node_of t cpu] is the NUMA node of [cpu]: contiguous blocks of
    [ceil (ncpus / nodes)] CPUs, the last block possibly short.  Always
    [0] at [nodes = 1].  The single source of topology truth for the
    cache model, the per-node buses and the NUMA-aware global layer. *)
