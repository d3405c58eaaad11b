(** Singly-linked freelists threaded through the free blocks themselves
    — the representation the paper's Design section assumes throughout:
    a free block's own memory holds all allocator metadata, so the
    per-CPU caches (Figure 2) and the global layer's list-of-lists
    hand-off move whole lists by exchanging a single head pointer.

    Word 0 of every free block is its link to the next free block (0 is
    nil).  When a block heads a *target-sized list* in the global layer's
    list-of-lists, word 1 links to the next list's head and word 2 holds
    the list's block count — every managed size class is at least four
    words, so the metadata always fits.

    All operations here run on the simulated machine and are charged. *)

val link : int
(** Offset of the next-block link within a block (word 0). *)

val next_list : int
(** Offset of the next-list link within a list head (word 1). *)

val count : int
(** Offset of the block count within a list head (word 2). *)

val push : head:int -> int -> unit
(** [push ~head a] pushes block [a] onto the list whose head pointer
    lives at address [head]. *)

val take_n : head:int -> n:int -> int * int
(** [take_n ~head ~n] pops up to [n] blocks and chains them into a fresh
    list, returning its head (0 if none) and actual length. *)

val iter_chain : int -> (int -> next:int -> unit) -> unit
(** [iter_chain h f] walks a block chain starting at [h], reading each
    block's link word *before* calling [f blk ~next] so that [f] may
    repurpose the block's link word. *)

val length_oracle : Sim.Memory.t -> int -> int
(** Host-side chain length (uncharged; test oracle).  Raises
    [Invalid_argument] after 1_000_000 nodes (cycle guard). *)
