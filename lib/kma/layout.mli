(** Address-space layout of the allocator inside simulated memory: the
    static kernel data structures the paper's Design section names —
    per-CPU caches (layer 1), per-class global pools (layer 2),
    coalesce-to-page radix structures (layer 3) and the vmblk arena
    with its dope vector (layer 4) — packed into one address map.

    {v
    +------------------------------------------------------------+
    | 0..1023      reserved (word 0 is the nil pointer; words    |
    |              16..1023 are benchmark-harness scratch space)  |
    | size table   request-bytes -> size-class index             |
    | per-CPU      ncpus x nsizes caches, 2 cache lines each     |
    | global       nnodes x nsizes pools, lock + data line + pad |
    | pagepool     nsizes radix structures (lock, hint, buckets) |
    | vmctl        vmblk-layer lock, span list, arena cursor     |
    | dope vector  (addr >> vmblk_shift) -> vmblk base           |
    | ...pad to vmblk alignment...                               |
    | vmblk arena  vmblks: pd header pages then data pages       |
    +------------------------------------------------------------+
    v}

    All layout arithmetic is host-side and free of simulated cost:
    compiled kernel code addresses its static structures with immediate
    operands.  Reading *through* the structures (e.g. the dope vector, or
    a size-table entry) is simulated and charged. *)

type t = {
  params : Params.t;
  ncpus : int;
  nnodes : int;  (** NUMA nodes of the underlying machine (1 = flat) *)
  nsizes : int;
  line_words : int;  (** cache-line size, for control-structure padding *)
  page_words : int;
  page_shift : int;
  (* size table *)
  size_table_base : int;
  size_table_len : int;
  size_table_gran_shift : int;  (** index = (bytes - 1) >> gran_shift *)
  (* per-CPU caches *)
  percpu_base : int;
  pcc_words : int;
  (* global layer *)
  global_base : int;
  gbl_words : int;
  (* coalesce-to-page layer *)
  pagepool_bases : int array;  (** per-size base address *)
  (* coalesce-to-vmblk layer *)
  vmctl_base : int;
  dope_base : int;
  dope_len : int;
  vmblk_base : int;
  vmblk_words : int;
  vmblk_shift : int;
  vmblk_pages : int;
  hdr_pages : int;
  data_pages : int;  (** data pages per vmblk *)
  arena_vmblks : int;  (** how many vmblks fit in simulated memory *)
  pd_words : int;
  control_words : int;  (** end of the control region *)
}

val make : Sim.Config.t -> Params.t -> t
(** @raise Invalid_argument if memory is too small for the layout (at
    least one whole vmblk must fit after the control region). *)

(** {1 Address helpers (host-side arithmetic, uncharged)} *)

val pcc_addr : t -> cpu:int -> si:int -> int
(** Base of the per-CPU cache record for [cpu] and size class [si]. *)

val gbl_node_addr : t -> node:int -> si:int -> int
(** Base of [node]'s global-layer record for [si] (the lock word): the
    layout carries [nnodes * nsizes] records so the NUMA-aware global
    layer can keep a node-local gblfree per size class.  Node 0's
    record is the only one the flat global layer ever touches, and the
    whole global layer on a 1-node machine. *)

val pagepool_addr : t -> si:int -> int
val vmblk_addr : t -> index:int -> int
val vmblk_of_addr : t -> int -> int
(** Aligned vmblk base containing a given address (pure mask). *)

val dope_entry : t -> int -> int
(** Address of the dope-vector entry covering a given address. *)

val pd_addr : t -> vmblk:int -> data_page:int -> int
(** Address of the page descriptor for the [data_page]-th data page. *)

val pd_of_page : t -> page_addr:int -> int
(** Page descriptor address for a data page (pure arithmetic; the vmblk
    base is recovered by masking). *)

val page_of_pd : t -> pd:int -> int
(** Word address of the data page described by [pd]. *)

val total_data_pages : t -> int
(** Capacity of the whole arena in data pages. *)
