(** A small distributed lock manager, the paper's realistic
    kmem_alloc-heavy application ("makes heavy use of kmem_alloc in
    order to build data structures needed to track lock requests and
    ownership", serving OLTP clusters).

    Every structure — the resource hash table, resource blocks, lock
    blocks — is allocated from the system allocator under test, so an
    OLTP trace through the DLM produces exactly the allocation mix the
    paper measured miss rates with: many small short-lived blocks, a
    block frequently freed on a different CPU than allocated it
    (the last unlocker frees the resource block).

    Locking model: the six VMS/DLM modes with the standard
    compatibility matrix; per-bucket spinlocks; FIFO wait queues with
    grant-on-unlock. *)

type t

type mode = NL | CR | CW | PR | PW | EX

val compatible : mode -> mode -> bool
(** The standard DLM compatibility matrix. *)

val all_modes : mode array

type status = Granted | Waiting

val create : Baseline.Allocator.t -> t option
(** [create a] allocates the resource table (simulated); [None] if even
    that fails. *)

val lock : t -> resource:int -> mode:mode -> client:int -> int
(** [lock t ~resource ~mode ~client] requests a lock, creating the
    resource block on first touch.  Returns the lock-block address
    (status {!Granted} or {!Waiting}), or 0 if allocation failed. *)

val try_lock : t -> resource:int -> mode:mode -> client:int -> int
(** Like {!lock} but never enqueues: returns 0 when the lock cannot be
    granted immediately (or allocation fails). *)

val unlock : t -> int -> unit
(** [unlock t lkb] releases a granted lock, grants newly-compatible
    waiters FIFO, frees the lock block, and frees the resource block
    when it was the last lock. *)

val cancel : t -> int -> unit
(** [cancel t lkb] abandons a {!Waiting} request. *)

val status : t -> int -> status
(** [status t lkb] reads a lock block's state (simulated). *)

val convert : t -> int -> mode:mode -> bool
(** [convert t lkb ~mode] atomically changes a granted lock's mode if
    the new mode is compatible with the other granted locks; returns
    false (mode unchanged) otherwise. *)

(** {1 Host-side oracles} *)

val resources_oracle : t -> int
(** Number of resource blocks currently materialised. *)

val locks_oracle : t -> int
(** Number of lock blocks currently live (granted + waiting). *)
