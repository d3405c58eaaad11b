(** Per-CPU caching layer (layer 1) — the paper's fast path, whose
    split-freelist state machine is the paper's Figure 2 (walked
    through, state by state, in [test/kma/test_percpu.ml]).

    One cache per (CPU, size class), holding a split freelist: blocks are
    allocated from and freed to [main]; [aux] holds a full target-sized
    list in reserve.  CPUs never touch other CPUs' caches, so the only
    protection needed is disabling interrupts — no atomic operations, no
    shared cache lines on the fast path.

    Movement is always in target-sized groups:
    - freeing onto a full [main] first flushes [aux] (if any) to the
      global layer as one list, then slides [main] into [aux];
    - allocating from an empty [main] first slides [aux] into [main],
      and only when both are empty fetches one list from the global
      layer.

    A cache therefore holds at most [2 * target] blocks and visits the
    global layer at most once per [target] operations.

    The fast paths are instruction-calibrated: with a warm cache an
    allocation or free retires exactly 13 simulated instructions
    (experiment E2; the paper's cookie-interface count).

    Invariants: a CPU's cache state is touched only by that CPU and only
    with interrupts disabled (the paper's Section 3.2 discipline — no
    locks, no atomics on the fast path); dynamically enforced by the
    {!Lockcheck} probe on every entry. *)

exception Corruption of string
(** Raised by the debug kernel ([Params.debug]) on a detected
    use-after-free write or double free. *)


val o_main_cnt : int
(** Offset of the [main] list's block count in a cache record. *)

val boot_init : Ctx.t -> unit

val alloc : Ctx.t -> si:int -> int
(** [alloc ctx ~si] allocates a block of class [si] on the current
    simulated CPU; 0 when memory is exhausted. *)

val free : Ctx.t -> si:int -> int -> unit
(** [free ctx ~si a] frees block [a] of class [si] on the current
    simulated CPU. *)

val drain : Ctx.t -> si:int -> unit
(** [drain ctx ~si] flushes the current CPU's cache for [si] back to the
    global layer (administrative operation: CPU offline, low-memory
    shakeout, or the cyclic workload's phase change). *)

val drain_aux : Ctx.t -> si:int -> unit
(** [drain_aux ctx ~si] flushes only the reserve ([aux]) list, keeping
    the hot [main] list — the light half of a [kmem_reap] pass (see
    {!Pressure}). *)

(** {1 Host-side oracles} *)

val cached_blocks_oracle : Ctx.t -> cpu:int -> si:int -> int
(** Blocks currently held by a per-CPU cache (main + aux). *)

val cache_oracle : Ctx.t -> cpu:int -> si:int -> (int * int) * (int * int) * int
(** Raw cache words [((main_head, main_cnt), (aux_head, aux_cnt),
    target)] — the heapcheck checker walks the chains itself and
    compares against the count words. *)
