(** Coalesce-to-page layer (layer 3) — the paper's Design-section
    answer to the fragmentation that defeats the mk baseline in its
    Figure 9 worst case: pages coalesce back to fully-free the moment
    their last block returns, so memory moves between size classes.

    Gathers blocks of a given size class back into pages.  Every split
    page's descriptor carries a freelist of its free blocks and a count;
    the instant the count reaches blocks-per-page the page's physical
    memory is returned to the VM system and its virtual page goes back to
    the vmblk layer — online coalescing with no mark-and-sweep pass.

    Partially-free pages sit on a radix-sorted freelist (one bucket per
    free count), so allocation always carves from the page with the
    *fewest* free blocks: nearly-empty pages get time to drain and be
    reclaimed for other sizes or for user processes.

    All simulated operations take the per-size pagepool lock internally.

    Invariants: per-size state is protected by the [pagepool] lock
    (class [kma.pagepool]), taken only under (or independently of) a
    [kma.gbl] lock and before the [kma.vmblk] lock — the middle rung of
    the gbl -> pagepool -> vmblk order checked by {!Lockcheck}. *)

val boot_init : Ctx.t -> unit
(** Host-side: marks every radix structure empty. *)

val get_blocks : Ctx.t -> si:int -> want:int -> int * int
(** [get_blocks ctx ~si ~want] carves up to [want] blocks of class [si],
    preferring the fullest partially-free pages and splitting fresh
    pages from the vmblk layer when none remain.  Returns a block chain
    (head, count); count may be short of [want] (0 on exhaustion). *)

val put_blocks : Ctx.t -> si:int -> head:int -> count:int -> unit
(** [put_blocks ctx ~si ~head ~count] examines each block of the chain
    individually back into its page (the paper's reason the global layer
    keeps whole lists: this walk is the expensive part). *)

(** {1 Host-side oracles} *)

val bucket_pages_oracle : Ctx.t -> si:int -> (int * int list) list
(** [(nfree, pages)] for every non-empty radix bucket, ascending. *)

val minhint_oracle : Ctx.t -> si:int -> int
(** Raw [minhint] word: the claimed lower bound on the fullest
    non-empty bucket ([blocks_per_page + 1] when all are empty). *)

val free_blocks_oracle : Ctx.t -> si:int -> int
(** Total free blocks held in partially-free pages of class [si]. *)
