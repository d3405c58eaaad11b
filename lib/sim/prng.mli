(** Deterministic pseudo-random numbers (splitmix-style): the one
    generator behind workload generation ({!Workload.Prng} re-exports
    it), the heap fuzzer's traces and the VM system's injected grant
    denials.  Host-side state: drawing numbers costs the simulation
    nothing (a benchmark driver's randomness is not the system under
    test), but sequences are reproducible from the seed.  Reproduction
    infrastructure with no paper counterpart. *)

type t

val create : seed:int -> t
val split : t -> t
(** [split t] derives an independent stream (e.g. one per CPU). *)

val int : t -> bound:int -> int
(** [int t ~bound] is uniform in [0, bound). @raise Invalid_argument if
    [bound <= 0]. *)

val pick : t -> 'a array -> 'a
(** Uniform choice. @raise Invalid_argument on an empty array. *)

val weighted : t -> (int * 'a) array -> 'a
(** [weighted t choices] picks proportionally to the integer weights.
    @raise Invalid_argument if all weights are zero or any is
    negative. *)
