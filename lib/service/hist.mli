(** Log-scale latency histogram for the service harness's tail
    accounting (p50/p99/p999), the host-side analogue of the paper's
    measured-latency tables: exact nanosecond buckets below 16 ns,
    then eight sub-buckets per power of two, so every recorded sample
    is placed within ~9 % of its true value in O(1) with a fixed
    488-slot array and no allocation on the record path.

    Single-writer: one histogram belongs to one domain; {!merge} joins
    per-domain histograms after the domains have been joined. *)

type t

val create : unit -> t

val add : t -> int -> unit
(** [add t ns] records one latency sample in nanoseconds (negative
    samples clamp to 0). *)

val count_oracle : t -> int
(** Samples recorded (test oracle). *)

val max_ns : t -> int
val mean_ns : t -> float
(** [nan] when empty. *)

val merge : into:t -> t -> unit
(** [merge ~into src] adds [src]'s samples into [into]. *)

val p50 : t -> float
(** [p50 t] estimates the median in nanoseconds, within the bucket
    resolution; [nan] when empty.  A rank landing in the highest
    occupied bucket reports the exact recorded maximum.  {!p99} and
    {!p999} estimate the 99th and 99.9th percentiles the same way. *)

val p99 : t -> float
val p999 : t -> float
