(** Non-blocking buddy allocator over a flat tree of per-block status
    words, after the non-blocking buddy system of Marotta et al.
    (PAPERS.md: "A Non-blocking Buddy System for Scalable Memory
    Allocation on Multi-core Machines"); an extension arm beyond the
    paper's four lock-based allocators.

    The arena is a power of two of 16-byte leaves; a heap-ordered binary
    tree over the leaves holds one status word per block (FULL plus two
    per-child occupancy bits).  Splitting and coalescing are implicit: a
    block is claimable iff its status word reads 0, so freeing the last
    piece of a subtree re-creates the bigger block with no merge pass
    and no lock anywhere.  All mutation goes through the simulator's
    atomic RMW operations ([cas_val], [fetch_or], [fetch_and]), each
    costed by the [rmw] geometry knob, so retry storms and helping
    traffic land on the simulated bus like any other coherence load.

    Linearization: a successful [alloc] linearizes at its CAS of the
    claimed node's status 0 -> FULL — every later CAS or occupancy-OR on
    an overlapping block observes that word and fails or conflicts; a
    claim that meets a FULL ancestor while marking rolls itself back and
    is never visible to the caller.  [free] linearizes at the
    [fetch_and] clearing FULL: from that instant the block (and, once
    the unmark ascent clears quiescent ancestors, each fully-free
    enclosing block) is claimable.  The occupancy bits are a
    cooperatively-repaired index, not the truth: claimers re-assert
    their whole path and clearers recheck-and-help, so at quiescence a
    bit is set iff the child subtree holds an allocation — the invariant
    {!invariant_oracle} checks.

    Invariants: at quiescence, no FULL node has a FULL ancestor or
    descendant (overlap freedom); occupancy bits equal subtree contents;
    allocated plus free words equal {!arena_words_oracle} (conservation —
    checked by the [test/lockfree] hammer). *)

type t

val create : Sim.Machine.t -> t
(** [create machine] sizes the largest power-of-two arena (plus its
    status tree and per-CPU scan hints) that fits the machine's memory
    and boots it host-side.  Use a fresh machine per allocator.
    @raise Invalid_argument if memory is too small for one 4096-byte
    chunk. *)

val alloc : t -> bytes:int -> int
(** [alloc t ~bytes] claims a block of the smallest class >= [bytes]
    (classes 16 B .. 4096 B); 0 on exhaustion or for sizes above 4096 B.
    Simulated; lock-free (a failed CAS or conflict rollback retries at
    the next candidate node, never waits).
    @raise Invalid_argument if [bytes <= 0]. *)

val free : t -> addr:int -> bytes:int -> unit
(** [free t ~addr ~bytes] releases a block obtained from [alloc] with
    the same size class.  Simulated; lock-free. *)

val stats : t -> Stats.t
(** CAS/mark/conflict/help counters for this instance (host-side,
    zero simulated cost). *)

(** {1 Host-side oracles (uncharged, for tests and experiment checks)} *)

val arena_words_oracle : t -> int
(** Total words under management. *)

val allocated_words_oracle : t -> int
(** Words currently claimed (sum of FULL block sizes). *)

val invariant_oracle : t -> string option
(** [invariant_oracle t] checks overlap freedom and bit/subtree
    agreement at quiescence; [Some msg] describes the first violation.
    Only meaningful while no simulated CPU is mid-operation. *)
