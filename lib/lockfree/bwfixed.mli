(** Constant-time concurrent fixed-size allocation in the style of
    Blelloch & Wei (PAPERS.md: "Concurrent Fixed-Size Allocation and
    Free in Constant Time"); an extension arm beyond the paper's four
    lock-based allocators.

    Nine segregated size classes, each an equal share of the arena.
    Per CPU and class, a private stack of claimed blocks on the CPU's
    own cache lines serves the hot path; the shared per-class Treiber
    stack holds batches of [8] blocks behind a single tagged head word,
    so a refill or flush is one CAS per 8 blocks and the common
    alloc/free touches no shared word at all — the paper's per-CPU
    freelist shape rebuilt without the lock.  The head word packs a
    generation tag beside the address to defeat ABA.

    The private count words carry the same (tag, count) packing as the
    shared heads, and every pop/push of a non-empty private stack
    commits with a tagged CAS.  That makes the stacks stealable: a CPU
    whose class is exhausted (private stack and shared stack both
    empty) claims another CPU's whole private stack with one CAS on
    the victim's count word and flushes the claimed blocks through the
    shared tagged stack, so exhaustion is global, not per-CPU-visible.

    Linearization: an [alloc] served from the private stack linearizes
    at its successful count-word CAS; a refill linearizes at the
    successful head CAS that detaches a batch, a flush at the head CAS
    that publishes one, and a steal at the CAS that zeroes the
    victim's count word.  Every CAS failure is counted in {!stats}.

    Invariants: per class, blocks on the shared stack plus blocks in
    every CPU's private stack plus blocks held by callers equal
    {!blocks_of_class} (conservation — checked by the [test/lockfree]
    hammer); a block is on at most one stack at a time. *)

type t

val create : Sim.Machine.t -> t
(** [create machine] carves the machine's memory into per-class arenas,
    pre-batches every block onto the shared stacks, and zeroes the
    private stacks (all host-side).  Use a fresh machine per allocator.
    @raise Invalid_argument if memory is too small. *)

val alloc : t -> bytes:int -> int
(** [alloc t ~bytes] takes a block of the smallest class >= [bytes]
    (classes 16 B .. 4096 B); 0 for sizes above 4096 B, or when the
    class is empty machine-wide: before failing, the exhaustion path
    steals blocks parked on other CPUs' private stacks (routing them
    through the shared tagged stack), so a failure means no CPU's
    stack held a block at any point the scan witnessed.  Simulated;
    lock-free.
    @raise Invalid_argument if [bytes <= 0]. *)

val free : t -> addr:int -> bytes:int -> unit
(** [free t ~addr ~bytes] returns a block to this CPU's private stack,
    flushing a batch to the shared stack when it overfills.  Simulated;
    lock-free. *)

val stats : t -> Stats.t
(** CAS/refill/flush counters for this instance (host-side, zero
    simulated cost). *)

(** {1 Host-side oracles (uncharged, for tests and experiment checks)} *)

val blocks_of_class : t -> c:int -> int
(** Total blocks carved for class [c] (0..8). *)

val free_blocks_oracle : t -> c:int -> int
(** Blocks of class [c] currently free: shared batches plus every CPU's
    private stack.  Only meaningful at quiescence. *)

