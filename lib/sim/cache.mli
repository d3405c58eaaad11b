(** MESI-style cache-coherence cost model.

    This is the simulated stand-in for the Symmetry's hardware caches:
    the paper's cache-profile analysis (Design section, "Analysis of
    Memory-Allocator Cache Profile") attributes the allocators'
    performance gap almost entirely to which accesses miss and who
    services them, and this module is where those misses are decided
    and priced.  Shape and costs come from the machine's {!Geometry},
    so the paper's informal "what if the cache were shaped differently"
    arguments are runnable (experiment E12).

    The model tracks, for every cache line, which CPUs hold a copy and
    which CPU (if any) holds it modified.  Exclusive and Shared are
    collapsed into one state with the Exclusive optimisation preserved: a
    write to a line held by no other CPU is silent.  Each access returns
    the stall cost in cycles beyond the base instruction cost:

    - load hit, or store hit on an owned/exclusive line: 0;
    - load miss serviced from memory: [miss_cost];
    - load miss serviced from another CPU's modified line: [c2c_cost];
    - store to a line shared with other CPUs: [upgrade_cost] (bus
      invalidation round), plus [miss_cost] or [c2c_cost] if not resident;
    - atomic read-modify-write: as a store, plus [rmw_cost];
    - any access to the uncacheable region at the top of memory: 40.

    When [cache_lines] is positive, each CPU's cache is bounded and lines
    are evicted FIFO, so capacity misses occur; with [0] the caches are
    unbounded and only coherence misses occur.  The model is fully
    deterministic.

    Sharer tracking is width-independent: each line's holder set is a
    flat array of bitset words (32 CPUs per word), so the model scales
    to {!Config.max_cpus} CPUs.  (A single native-int bitmask here
    silently overflowed at [ncpus = 63/64].)

    With [nodes > 1] the machine is NUMA: CPUs live on contiguous
    nodes, memory lines have an address-range home node, and misses,
    dirty transfers and invalidation rounds that cross the interconnect
    pay the [node_miss_cost]/[node_c2c_cost] surcharges from
    {!Geometry} (three-hop directory detour included).  At the default
    [nodes = 1] none of this code runs and costs are bit-identical to
    the flat model.

    {b Ownership.}  Boot code may declare lines {!own}ed by one CPU or
    read-only.  A hit on such a line changes only the accessing CPU's
    statistics and a line no other CPU touches, and whether it hits
    depends only on that CPU's own fills (FIFO eviction is driven by
    its own misses; nobody can invalidate the line), which is what lets
    {!Machine} run it ahead of its schedule ({!private_hit}).

    Invariants: a line {!own}ed by CPU [c] is only ever held by [c]; a
    read-only line is never held modified; every load miss and every
    store or read-modify-write checks the declaration and raises
    {!Ownership_violation} (naming the CPU, the address and the owner)
    instead of breaking it, so the load-hit path pays no check. *)

type t

type kind = Load | Store | Rmw

type owner =
  | Cpu of int  (** only this CPU ever loads or stores the line *)
  | Read_only  (** any CPU may load the line; nobody stores to it *)

exception Ownership_violation of string
(** An access or a declaration that breaks an {!own} declaration. *)

type stats = {
  mutable loads : int;
  mutable stores : int;
  mutable rmws : int;
  mutable hits : int;
  mutable misses : int;  (** misses serviced from memory *)
  mutable c2c : int;  (** misses serviced from another CPU's dirty line *)
  mutable upgrades : int;  (** shared-to-exclusive invalidation rounds *)
  mutable invalidations : int;  (** copies this CPU invalidated in others *)
  mutable evictions : int;  (** capacity evictions *)
  mutable remote : int;
      (** accesses that paid any cross-node NUMA surcharge (always [0]
          on the flat [nodes = 1] machine) *)
  mutable stall_cycles : int;  (** total stall cycles charged *)
}

val create : Config.t -> t

val access : t -> cpu:int -> Memory.addr -> kind -> int
(** [access t ~cpu a kind] records an access by [cpu] to the line holding
    word [a] and returns the stall cost in cycles (excluding the base
    instruction cost and excluding [rmw_cost]; {!Machine} adds those). *)

val stats : t -> cpu:int -> stats
(** [stats t ~cpu] is the live statistics record for [cpu] (mutated by
    subsequent accesses; copy it if you need a snapshot). *)

val total_stats : t -> stats
(** [total_stats t] sums the per-CPU statistics into a fresh record. *)

val reset_stats : t -> unit

val set_trace : t -> (cpu:int -> addr:Memory.addr -> kind -> cost:int -> unit) option -> unit
(** [set_trace t f] installs (or clears) a per-access hook, used by the
    analysis experiment to reconstruct the paper's logic-analyzer access
    profiles. *)

val own : t -> addr:Memory.addr -> words:int -> owner -> unit
(** [own t ~addr ~words o] declares every line overlapping
    [[addr, addr + words)] as [o]: boot-time, host-side, and for the
    machine's lifetime.  Re-declaring a line with the same owner is a
    no-op.
    @raise Invalid_argument if the range leaves cached memory or names
    no CPU.
    @raise Ownership_violation if a line is already declared otherwise,
    is held by a CPU other than the owner, or (read-only) is held
    modified. *)

val private_hit : t -> cpu:int -> Memory.addr -> kind -> bool
(** [private_hit t ~cpu a kind] is true when an access of [kind] by
    [cpu] to [a] is a hit that only [cpu] can observe: [cpu] holds the
    line and owns it, or the line is read-only and [kind] is [Load].
    Always false while a {!set_trace} hook is installed, so the hook
    keeps seeing accesses in schedule order. *)

val holders_oracle : t -> Memory.addr -> int list
(** [holders_oracle t a] is the sorted list of CPUs holding the line of
    [a] (test oracle). *)

val dirty_owner_oracle : t -> Memory.addr -> int option
(** [dirty_owner_oracle t a] is the CPU holding the line of [a]
    modified, if any (test oracle). *)

val resident_oracle : t -> cpu:int -> int
(** [resident_oracle t ~cpu] is the number of lines currently held by
    [cpu] (test oracle). *)

val node_of_cpu_oracle : t -> int -> int
(** [node_of_cpu_oracle t cpu] is [cpu]'s NUMA node ({!Config.node_of};
    always [0] on the flat machine).  Test oracle. *)

val home_of_addr_oracle : t -> Memory.addr -> int
(** [home_of_addr_oracle t a] is the home node of the memory holding [a]
    (address-range partition; always [0] on the flat machine).  Test
    oracle. *)
