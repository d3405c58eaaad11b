(** STREAMS buffer allocation: [allocb], [freeb] and the message
    utilities, over any of the benchmarked allocators.

    This is the special-purpose allocator of the paper's analysis
    section, reusing the general-purpose allocator at the binary level
    exactly as the paper prescribes ("special-purpose allocators such as
    allocb invoke the same functions as does the general-purpose
    kmem_alloc allocator").

    All functions run on a simulated CPU.  Word addresses; a returned 0
    means allocation failure. *)

type t

val create : Baseline.Allocator.t -> t
(** [create a] builds the buffer subsystem over allocator [a]
    (host-side). *)

val allocator : t -> Baseline.Allocator.t

val allocb : t -> bytes:int -> int
(** [allocb t ~bytes] allocates a message capable of holding [bytes]
    data bytes: message block + data block + buffer, linked and
    initialised with read/write pointers at the buffer start.  Returns
    the mblk address, or 0 (releasing partial allocations). *)

val freeb : t -> int -> unit
(** [freeb t mblk] frees one message block; the data block and buffer go
    too when the reference count drops to zero. *)

val dupb : t -> int -> int
(** [dupb t mblk] allocates a second message block sharing the data
    block (reference count incremented); 0 on failure. *)

val linkb : t -> int -> int -> unit
(** [linkb t msg tail] appends [tail] to [msg]'s continuation chain. *)

val freemsg : t -> int -> unit
(** [freemsg t msg] frees every block of the message chain. *)

val msgdsize : t -> int -> int
(** [msgdsize t msg] is the number of data bytes in the message
    (sum of wptr - rptr over the chain). *)

(** {1 Data access (simulated)} *)

val put_byte_word : t -> int -> int -> unit
(** [put_byte_word t mblk v] appends one data word [v] at the write
    pointer (asserts capacity). *)
