(** Coalesce-to-vmblk layer (layer 4).

    Manages large blocks of virtual memory ("vmblks", 4 MB in the
    paper's implementation).  Each vmblk starts with header pages holding
    one 8-word *page descriptor* per data page, followed by the data
    pages themselves.  The dope vector maps any block address to its
    vmblk in one read; the page descriptor is then found by subtracting
    the vmblk base, shifting off the page offset, and subtracting the
    header size — the paper's two-level sparse-array scheme.

    Adjacent free spans of pages are coalesced eagerly when freed, using
    a boundary-tag-like scheme over the page descriptors: the first page
    of a free span records the span length, the last records the span
    head.  Physical memory is granted/reclaimed through {!Sim.Vmsys} as
    spans are allocated/freed; virtual address space is retained.

    Requests larger than one page bypass layers 1–3 and come here
    directly ({!alloc_large}/{!free_large}).

    All functions except {!boot_init} and the oracles run on the
    simulated machine and take the vmblk lock internally.

    Invariants: the span maps and dope vector are protected by the
    single [vmblk] lock (class [kma.vmblk]), the innermost lock of the
    gbl -> pagepool -> vmblk order; this layer is the only caller of
    {!Sim.Vmsys}, necessarily with the lock held (registered [vm_safe],
    see DESIGN.md "Concurrency invariants"). *)

(** {1 Page-descriptor field offsets and states} *)

val pd_state : int
val pd_arg : int
(** Span length for a span head; head-descriptor address for a span
    tail. *)

val pd_sizeidx : int
(** Size class of a split page. *)

val pd_nfree : int
(** Free blocks within a split page. *)

val pd_blkhead : int
(** Freelist of blocks within a split page. *)

val pd_next : int
val pd_prev : int

val st_free_mid : int
(** Interior page of a free span (also the boot state). *)

val st_free_head : int
val st_free_tail : int

val st_split : int
(** Page carved into blocks by the page layer. *)

val st_span_alloc : int
(** Head page of an allocated multi-page span. *)

val st_span_mid : int
(** Interior page of an allocated span. *)

(** {1 Boot} *)

val boot_init : Ctx.t -> unit
(** Host-side: zeroes control words.  No vmblk is created until first
    use. *)

(** {1 Simulated operations} *)

val alloc_pages : Ctx.t -> npages:int -> int
(** [alloc_pages ctx ~npages] allocates a physically-backed span of
    [npages] contiguous pages and returns the address of its first page,
    or 0 if virtual or physical memory is exhausted.  The span's
    descriptors are marked allocated ([st_span_alloc] head,
    [st_span_mid] interior). *)

val free_pages : Ctx.t -> page:int -> npages:int -> unit
(** [free_pages ctx ~page ~npages] returns a span: physical pages go
    back to the VM system, and the virtual span is coalesced with free
    neighbours.  The caller warrants the span was allocated with this
    length. *)

val alloc_large : Ctx.t -> bytes:int -> int
(** Multi-page allocation for requests bigger than a page; 0 on
    exhaustion. *)

val free_large : Ctx.t -> addr:int -> bytes:int -> unit
(** [free_large ctx ~addr ~bytes] returns a span from {!alloc_large}.
    An [assert] checks, host-side and so at no simulated cost, that
    [addr] heads an allocated span of [bytes]' page count. *)

val pd_of_block : Ctx.t -> int -> int
(** [pd_of_block ctx a] is the page-descriptor address for the page
    containing block [a], via a charged dope-vector read.
    @raise Assert_failure if [a] is not inside any grown vmblk. *)

(** {1 Host-side oracles} *)

val free_span_lengths_oracle : Ctx.t -> int list
(** Lengths of every span on the free-span list (in list order). *)

val nvmblks_oracle : Ctx.t -> int

val free_spans_oracle : Ctx.t -> (int * int) list
(** Every span on the free-span list as [(head descriptor address,
    recorded length)] pairs, in list order — the raw material for the
    heapcheck boundary-tag sweep. *)
