(** The global layer for OCaml domains, after the paper's global
    freelist: a mutex-protected stock of full target-sized batches,
    exchanged whole with per-domain magazines — one lock round-trip
    moves [target] objects.

    When the depot overflows its bound, the excess batch is simply
    dropped: under a garbage collector the "coalescing layers" are the
    GC itself, which is the per-design substitution documented in
    DESIGN.md.

    Invariants: [nbatches] equals [length stock]; every stocked batch
    has at most [target] items at the time it was grouped; the loose
    bucket holds fewer than [target] items outside of a [put_partial]
    regroup; [nbatches <= max_batches]; [target] and [max_batches]
    never decrease.

    Every operation that takes the mutex on the data path also reports
    whether it was held by another domain at acquire time ([try_lock]
    failed) — the contention signal {!Pool}'s adaptive mode feeds on. *)

type 'a t

val create : target:int -> max_batches:int -> 'a t
(** [target] is the batch size magazines exchange; odd-sized returns
    are regrouped into [target]-sized batches.
    @raise Invalid_argument if [target < 1] or [max_batches < 0]. *)

val get : 'a t -> 'a list option * bool
(** [get t] takes one batch (at most [target] items), or [None] when
    empty; the flag is [true] when the lock was contended. *)

val put : 'a t -> 'a list -> [ `Kept | `Dropped ] * bool
(** [put t batch] stores a batch; [`Dropped] when the depot is full
    (the batch is released to the GC).  The flag is [true] when the
    lock was contended. *)

val put_partial : 'a t -> 'a list -> bool
(** [put_partial t items] accepts an odd-sized return (magazine drain at
    domain exit), regrouping into batches internally; overflow beyond
    the bound is dropped.  Returns [true] when the lock was
    contended. *)

val set_geometry : 'a t -> target:int -> max_batches:int -> unit
(** Raise the regroup batch size and the stock bound under the lock,
    each to the larger of its current and given value, so two racing
    updates leave the larger geometry whatever order they land in.
    Already-stocked batches keep their old size (magazines split
    overlong batches on install).
    @raise Invalid_argument if [target < 1] or [max_batches < 0]. *)

val batches : 'a t -> int
(** Current stock (for monitoring; momentarily stale by nature). *)

val drain : 'a t -> 'a list
(** [drain t] empties the depot (tests, shutdown). *)
