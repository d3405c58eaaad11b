(** Baseline: the "simple global mutual-exclusion" pool the paper's
    allocator is designed to beat — one mutex around one free stack.
    Same interface shape as {!Pool}, no per-domain caching: every
    operation takes the lock. *)

type 'a t

val create : ctor:(unit -> 'a) -> ?reset:('a -> unit) -> unit -> 'a t
val alloc : 'a t -> 'a
val release : 'a t -> 'a -> unit
