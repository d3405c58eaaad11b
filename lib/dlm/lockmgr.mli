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
    compatibility matrix, and per-bucket spinlocks.  A request is
    granted at once or refused: the OLTP workload retries a refused
    lock elsewhere, so the manager keeps no wait queue. *)

type t

type mode = NL | CR | CW | PR | PW | EX

val create : Baseline.Allocator.t -> t option
(** [create a] allocates the resource table (simulated); [None] if even
    that fails. *)

val try_lock : t -> resource:int -> mode:mode -> client:int -> int
(** [try_lock t ~resource ~mode ~client] grants a lock when [mode] is
    compatible with every lock granted on [resource], creating the
    resource block on first touch.  Returns the lock-block address, or
    0 when the lock cannot be granted (or allocation fails). *)

val unlock : t -> int -> unit
(** [unlock t lkb] releases a granted lock, frees the lock block, and
    frees the resource block when it was the last lock. *)

(** {1 Host-side oracles} *)

val resources_oracle : t -> int
(** Number of resource blocks currently materialised. *)

val locks_oracle : t -> int
(** Number of lock blocks currently granted. *)

val compatible_oracle : mode -> mode -> bool
(** The standard DLM compatibility matrix {!try_lock} grants by. *)
