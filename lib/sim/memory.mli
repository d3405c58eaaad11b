(** Word-addressed simulated physical memory.

    Reproduction infrastructure with no direct counterpart in the
    paper: the backing store beneath the simulated Symmetry's caches,
    holding every structure the allocators lay out (the paper's
    freelists, page descriptors and blocks all live here as words).

    A word models a 32-bit machine word; addresses are word indices.
    Address [0] is reserved as the nil pointer: it is readable and
    writable like any other word, but allocators treat it as NULL, so
    nothing is ever placed there.

    This module performs no cost accounting; it is the raw backing store.
    Simulated CPUs must access memory through {!Machine} so that the cache
    model can charge cycles.  Direct access from the host is reserved for
    boot-time initialisation and for test oracles.

    The store is demand-paged, as the paper's vmblk layer maps a page
    only when it is used: every word reads 0 until written, and a page
    of 4096 words takes host memory only from its first nonzero store
    (or nonzero {!fill}).  So a machine's host memory grows with the
    pages its run writes, not with its configured size.  Paging is
    invisible to the simulation: it changes no value read and no
    simulated cost. *)

type t

type addr = int
(** A word address in [0, size)]. *)

val create : words:int -> t
(** [create ~words] is a memory of [words] words, each reading 0.  It
    takes host memory for its page table only; no page is written.
    @raise Invalid_argument if [words <= 0]. *)

val get : t -> addr -> int
(** [get t a] reads word [a].
    @raise Invalid_argument if [a] is out of bounds. *)

val set : t -> addr -> int -> unit
(** [set t a v] writes [v] to word [a].
    @raise Invalid_argument if [a] is out of bounds. *)

val fill : t -> addr -> len:int -> int -> unit
(** [fill t a ~len v] writes [v] to words [a .. a+len-1]; [len = 0]
    writes nothing.  Filling untouched pages with 0 writes nothing.
    @raise Invalid_argument if [len < 0], if [a] is out of bounds, or
    if [len > 0] and [a+len-1] is out of bounds. *)

val blit_to_host_oracle : t -> addr -> len:int -> int array
(** [blit_to_host_oracle t a ~len] copies a region out for inspection
    (test oracle); [len = 0] gives [[||]].
    @raise Invalid_argument as {!fill} does. *)

val materialized_pages_oracle : t -> int
(** [materialized_pages_oracle t] is how many pages of [t] own host
    memory: those a nonzero value was ever stored to (test oracle). *)
