(** The previous-generation DYNIX general-purpose allocator ("oldkma"),
    which the paper describes as resembling Stephenson's Fast Fits
    (algorithm "S" in Korn & Vo's survey).

    We implement it as a first-fit boundary-tag allocator with immediate
    coalescing on free, under one global spinlock — the defining
    properties the paper's comparison rests on: every operation is
    globally serialized, touches shared boundary tags and freelist
    links, and performs split/merge work on each call.

    Two cost features reproduce the measured behaviour of the original
    (the paper's analysis of [allocb]/[freeb] found 300+ off-chip
    accesses per operation, some to uncacheable device registers, and a
    fixed code sequence of several hundred cycles):

    - each operation charges a fixed straight-line cost ([w_fixed])
      calibrated against the paper's no-miss timings;
    - each operation updates event counters in the machine's uncacheable
      region (when one is configured), as the historical allocator did.

    Unlike MK, oldkma {e does} coalesce, so it completes the worst-case
    benchmark — just slowly. *)

type t



val create : Sim.Machine.t -> t
(** Boots the allocator owning the memory above its control words and
    below the uncacheable region (host-side). *)

val alloc : t -> bytes:int -> int
(** Simulated; 0 on exhaustion. *)

val free_sized : t -> addr:int -> bytes:int -> unit
(** Simulated; the size is recovered from the boundary tag, so [bytes]
    is ignored. *)

val free_words_oracle : t -> int
(** Total words in free blocks (host-side; test oracle). *)
