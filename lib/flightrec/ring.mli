(** Bounded ring buffer that overwrites its oldest entries.

    Pure infrastructure with no counterpart in the source paper: it
    bounds the memory cost of recording the paper's Measurements-section
    reproductions, trading history depth for a hard footprint.

    The flight recorder keeps one per CPU.  Pushing into a full ring
    evicts the oldest entry and counts it as dropped; the retained
    window is always the newest [capacity] entries, in insertion
    order. *)

type 'a t

val create : capacity:int -> dummy:'a -> 'a t
(** [create ~capacity ~dummy] is an empty ring.  [dummy] fills unused
    slots (never observable through the API).
    @raise Invalid_argument if [capacity < 1]. *)

val push : 'a t -> 'a -> unit

val length : 'a t -> int
(** Entries currently retained, [<= capacity]. *)

val total : 'a t -> int
(** Entries ever pushed. *)

val dropped : 'a t -> int
(** Entries overwritten before they were read: [total - length]. *)

val fold : 'a t -> init:'b -> f:('b -> 'a -> 'b) -> 'b
(** Oldest retained entry first. *)
