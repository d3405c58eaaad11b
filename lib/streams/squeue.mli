(** A STREAMS message queue: the [putq]/[getq] pair that moves messages
    between stream modules, safe across simulated CPUs.

    The paper's Analysis section profiles the STREAMS buffer allocator
    ({!Buf}); this queue is the same framework's companion structure,
    which the paper does not measure.  The queue structure (lock, head,
    tail, count) lives in a block allocated from the underlying
    allocator, so queue traffic exercises the allocator's cross-CPU
    path exactly the way a protocol stack does. *)

type t

val create : Buf.t -> t option
(** [create buf] allocates and initialises a queue (simulated); [None]
    on allocation failure. *)

val putq : t -> int -> unit
(** [putq q msg] appends a message (by its first mblk) to the queue. *)

val getq : t -> int
(** [getq q] removes and returns the oldest message, or 0 if empty. *)

val length : t -> int
(** [length q] reads the queue's count (simulated). *)

val destroy : t -> unit
(** [destroy q] frees any queued messages and the queue structure. *)
