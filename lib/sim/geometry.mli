(** Runtime-configurable cache geometry for the simulated machine.

    The paper's cache-profile analysis (Design section, "Analysis of
    Memory-Allocator Cache Profile") varies cache geometry informally —
    line size against block size, per-CPU cache capacity against working
    set — to argue where coherence misses come from.  This module makes
    that axis a first-class, {e runtime} experiment parameter instead of
    a recompile: the part of a {!Config} that describes the cache
    (geometry proper: line size, capacity, associativity) together with
    the per-access cost model (hit, memory miss, remote-dirty miss,
    invalidation round, atomic RMW), parsed from the drivers'
    [--geometry] [key=value] spec string and validated before any
    machine is built.

    A geometry never changes what the simulator {e does}, only what it
    {e charges} (and, through capacity/associativity, which accesses
    miss): at {!default} the cycle counts of every experiment are
    bit-identical to the compiled-in constants they replace (proven by
    [test/sim] and the fig7/E8 regression pins). *)

type t = {
  line_words : int;  (** cache-line size in words; power of two *)
  cache_lines : int;
      (** per-CPU capacity in lines; [0] means unbounded (no capacity
          misses, coherence misses only) *)
  ways : int;
      (** set associativity: lines per set.  [0] means fully
          associative (the paper-era default: one FIFO over the whole
          cache).  When positive it must divide [cache_lines] and the
          resulting set count must be a power of two; replacement is
          FIFO within each set. *)
  insn_cost : int;  (** base cost of any instruction (per-access cost) *)
  miss_cost : int;  (** extra cycles for a miss serviced from memory *)
  c2c_cost : int;
      (** extra cycles for a miss serviced from another CPU's dirty
          line (the "remote" cost that dominates the paper's profiles) *)
  upgrade_cost : int;  (** shared-to-exclusive bus invalidation round *)
  rmw_cost : int;  (** extra pipeline-stall cycles for an atomic RMW *)
  nodes : int;
      (** NUMA nodes the CPUs are split across (contiguous blocks of
          [ncpus / nodes] CPUs, memory home nodes by address range).
          [1] — the default — is the paper's flat shared-bus machine:
          no NUMA surcharge is ever applied and cycle counts are
          bit-identical to the pre-NUMA model. *)
  node_miss_cost : int;
      (** extra cycles when a memory miss is serviced by a {e remote}
          node's memory (and for the third directory hop of a remote
          dirty transfer whose home is on neither endpoint's node);
          inert at [nodes = 1] *)
  node_c2c_cost : int;
      (** extra cycles when a dirty transfer or invalidation round
          crosses the node interconnect; inert at [nodes = 1] *)
}

val default : t
(** The compiled-in geometry every recorded result uses: 8-word
    (32-byte) lines, 256-line (8 KiB) fully-associative per-CPU caches,
    and the 50 MHz-Symmetry-calibrated costs (hit 0, miss 30, remote
    dirty 50, upgrade 20, RMW 12, 1 cycle per instruction).  NUMA is
    off ([nodes = 1]); the node surcharges (remote-memory miss 60,
    cross-node transfer 80) only bite once [nodes > 1]. *)

val validate : t -> unit
(** [validate t] checks the invariants documented on each field.
    @raise Invalid_argument naming the offending field. *)

val to_string : t -> string
(** Canonical spec string, e.g.
    ["line=8,lines=256,assoc=0,insn=1,miss=30,c2c=50,upgrade=20,rmw=12,nodes=1,node_miss=60,node_c2c=80"].
    [of_string (to_string t) = Ok t]. *)

val of_string : string -> (t, string) result
(** [of_string spec] parses a comma-separated [key=value] list over
    {!default}; keys are [line], [lines], [assoc], [insn], [miss],
    [c2c], [upgrade], [rmw], [nodes], [node_miss], [node_c2c] (each
    value a non-negative integer).  An unknown key, malformed pair, or
    invariant violation is [Error msg] — the drivers turn it into a
    usage error (non-zero exit), never an exception escaping mid-run. *)

val set_ambient : t -> unit
(** [set_ambient g] installs [g] as the process-wide geometry that
    {!Workload.Rig.paper_config} (and so every experiment that does not
    build its own {!Config}) picks up.  The experiment table calls it
    with a command's [--geometry] value before the command runs, before
    any domain is spawned; tests that need a specific geometry pass an
    explicit config instead. *)

val ambient : unit -> t
(** The installed geometry; {!default} until {!set_ambient} is called. *)
