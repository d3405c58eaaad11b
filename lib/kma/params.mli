(** Tunable parameters of the allocator — the knobs named in the
    paper's Design section ([target], [gbltarget], sizes, page/vmblk
    geometry).  The dynamic-[target] pressure policy its Future
    Directions section proposes is a set of fixed constants, documented
    in {!Pressure}.  The VM system's costs are fixed too: 300 cycles
    per page grant and 200 per reclaim, set by {!Kmem.create}.

    Terminology follows the paper: [target] bounds each half of a per-CPU
    cache's split freelist (so a per-CPU cache holds at most [2 * target]
    blocks, and the global layer is visited at most once per [target]
    operations); [gbltarget] bounds the global layer in units of
    target-sized lists (the global layer holds up to [2 * gbltarget]
    lists and exchanges [gbltarget] lists with the coalescing layer at a
    time, so the coalescing layer is visited at most once per [gbltarget]
    global-layer operations). *)

type page_policy =
  | Fullest_first
      (** the paper's radix-sorted order: carve from the page with the
          fewest free blocks, letting nearly-empty pages drain *)
  | Emptiest_first  (** ablation: carve from the emptiest page *)

type t = {
  sizes_bytes : int array;
      (** managed block sizes in bytes, ascending powers of two; the
          largest must equal the page size *)
  page_bytes : int;  (** page size in bytes (default 4096) *)
  vmblk_pages : int;  (** pages per vmblk, a power of two *)
  targets : int array;  (** per-size [target] *)
  gbltargets : int array;  (** per-size [gbltarget], in lists *)
  phys_pages : int option;
      (** physical-page budget granted by the VM system; [None] sizes it
          to the virtual arena *)
  page_policy : page_policy;  (** page-selection order in the page layer *)
  debug : bool;
      (** debug kernel: poison freed blocks and verify the poison on
          reallocation, catching use-after-free writes and double frees
          (at a realistic cycle cost, like a DEBUG kernel build) *)
}

val bytes_per_word : int
(** The simulated machine has 4-byte words. *)

val debug_poison : int
(** The pattern debug kernels write over words 3+ of freed blocks
    (word 0 is the freelist link; words 1-2 are global-layer list
    metadata). *)

val default : t
(** The paper's configuration: nine power-of-two sizes 16–4096 bytes,
    4 KiB pages, [target] from 10 (16-byte blocks) down to 2 (4096-byte
    blocks) via the heuristic [max 2 (min 10 (4096 / bytes))], and
    [gbltarget = max 2 (3 * target / 2)] (15 for small blocks). *)

val small : t
(** A downsized configuration for unit tests: 64-page vmblks. *)

val auto : memory_words:int -> t
(** [auto ~memory_words] is {!default} with [vmblk_pages] shrunk (never
    below 8) until at least four vmblks fit in a machine of the given
    size — the paper's 1024-page vmblks when memory is plentiful. *)

val default_gbltarget : target:int -> int

val make :
  ?sizes_bytes:int array ->
  ?page_bytes:int ->
  ?vmblk_pages:int ->
  ?targets:int array ->
  ?gbltargets:int array ->
  ?phys_pages:int ->
  ?page_policy:page_policy ->
  ?debug:bool ->
  unit ->
  t
(** [make ()] is {!default} with overrides; omitted [targets] /
    [gbltargets] are recomputed from the heuristics when [sizes_bytes]
    changes.

    @raise Invalid_argument if sizes are not ascending powers of two, if
    the largest size differs from [page_bytes], if a target is < 1, or if
    array lengths disagree. *)

val validate : t -> unit

val nsizes : t -> int
val page_words : t -> int
val size_words : t -> int -> int
(** [size_words t si] is the block size of class [si] in words. *)

val blocks_per_page : t -> int -> int
val size_index_of_bytes : t -> int -> int option
(** Host-side oracle: smallest class holding [bytes], or [None] if the
    request exceeds the largest class. *)
