(** Global layer (layer 2) — the middle layer of the paper's Design
    section, whose list-of-lists hand-off gives the 1/target,
    1/gbltarget miss-rate bounds checked in experiment E6.

    One instance per (node, size class), each protected by its own
    spinlock.  Its only purpose is to let blocks allocated on one CPU
    and freed on another flow back cheaply, without the coalescing
    layer's overhead.  On a flat machine (or with [Ctx.numa_global]
    false) only node 0's instances exist in practice and the layer
    behaves exactly as the paper's single global layer; with
    [Ctx.numa_global] set, each CPU drains to and fills from its own
    node's pool, so the per-size lock and its data line ping-pong only
    within a node instead of across the whole machine.

    Free blocks are kept as a list of *target-sized lists* ([gblfree]):
    moving a whole per-CPU cache half costs O(1) linked-list operations.
    Odd-sized returns (low-memory operation, explicit per-CPU cache
    drains) go onto the *bucket list*, which regroups blocks into
    target-sized lists.

    [gbltarget] is interpreted in units of lists: the layer holds at most
    [2 * gbltarget] lists, drains [gbltarget] lists to the
    coalesce-to-page layer when it fills, and refills by up to
    [gbltarget] lists when it empties.  Consecutive coalesce-layer
    interactions are therefore at least [gbltarget] list operations
    apart, giving the paper's 1/gbltarget worst-case miss rate (6.7% for
    gbltarget = 15).

    Invariants: all list state is protected by the per-size [gbl] lock
    (class [kma.gbl]), the outermost lock of the allocator's
    gbl -> pagepool -> vmblk order; a refill/drain may therefore reach
    the VM system with it held (registered [vm_safe], see DESIGN.md
    "Concurrency invariants"). *)

val boot_init : Ctx.t -> unit

val get_list : Ctx.t -> si:int -> int * int
(** [get_list ctx ~si] hands out one block list (head, count), refilling
    from the coalesce-to-page layer when empty.  Returns [(0, 0)] when
    memory is exhausted.  Count is normally [target] but may be short
    when memory runs low (the last blocks are still handed out: any CPU
    can allocate the last buffer). *)

val put_list : Ctx.t -> si:int -> head:int -> count:int -> unit
(** [put_list ctx ~si ~head ~count] accepts a full target-sized list
    from a per-CPU cache flush, draining to the coalesce-to-page layer
    on overflow. *)

val put_partial : Ctx.t -> si:int -> head:int -> count:int -> unit
(** [put_partial ctx ~si ~head ~count] accepts an odd-sized chain onto
    the bucket list and regroups full lists out of it. *)

val drain : Ctx.t -> si:int -> unit
(** [drain ctx ~si] pushes up to [gbltarget] lists from the calling
    CPU's node down to the coalesce-to-page layer, stopping at the
    first empty pop (overflow hysteresis).  Exposed for the
    critical-section regression test; normal callers reach it through
    {!put_list} / {!put_partial} overflow.  Caller must hold that
    node's [gbl] lock for the class. *)

val trim : Ctx.t -> si:int -> keep:int -> unit
(** [trim ctx ~si ~keep] pushes lists down to the coalesce-to-page
    layer until at most [keep] remain per node (the buckets are emptied
    too when [keep = 0]), letting fully-free pages return to the VM
    system — the global-layer half of a {!Pressure} reap pass. *)

val drain_all : Ctx.t -> si:int -> unit
(** [drain_all ctx ~si] pushes everything the global layer holds — on
    every node — down to the coalesce-to-page layer (administrative
    shakeout; see [Kmem.reap_global]). *)

(** {1 Host-side oracles}

    All aggregate across nodes except the per-node {!buckets_oracle}. *)

val nlists_oracle : Ctx.t -> si:int -> int
val bucket_count_oracle : Ctx.t -> si:int -> int
val total_blocks_oracle : Ctx.t -> si:int -> int
(** Blocks held by the global layer (lists plus bucket, all nodes). *)

val lists_oracle : Ctx.t -> si:int -> (int * int) list
(** Every list on [gblfree] as [(head, count-word)] pairs, node by node
    in list order.  Count words are read back raw (not recomputed), so
    a checker can compare them against actual chain lengths. *)

val buckets_oracle : Ctx.t -> si:int -> (int * int) list
(** Per-node [(bucket head, bucket count-word)] pairs, node order —
    lets a checker walk each node's bucket chain separately. *)
