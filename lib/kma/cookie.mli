(** The cookie fast-path interface.

    [kmem_alloc_get_cookie] translates a request size into an opaque
    cookie once; the [KMEM_ALLOC_COOKIE] / [KMEM_FREE_COOKIE] macro
    expansions then reach the proper per-CPU cache directly, skipping
    the function call and the size-to-class table lookup of the standard
    interface.  A warm cookie allocation or free retires exactly 13
    simulated instructions (the paper's 80x86 count; experiment E2).

    Cookies are only valid for sizes up to the largest managed class —
    exactly the compile-time-size use case the paper describes. *)

type t
(** An opaque cookie: pre-resolved size-class information. *)

val get : Kmem.t -> bytes:int -> t
(** [get kmem ~bytes] is [kmem_alloc_get_cookie]: performs the charged
    size translation once (simulated).
    @raise Invalid_argument if [bytes] is not coverable by a size class. *)

val of_bytes_host : Kmem.t -> bytes:int -> t
(** Host-side cookie construction, for cookies a real kernel would have
    baked in at compile time. *)


val alloc : Kmem.t -> t -> int
(** [alloc kmem c] is [KMEM_ALLOC_COOKIE]: 13 instructions warm.
    @raise Kmem.Kmem_exhausted on exhaustion. *)

val try_alloc : Kmem.t -> t -> int option

val free : Kmem.t -> t -> int -> unit
(** [free kmem c a] is [KMEM_FREE_COOKIE]: 13 instructions warm. *)
