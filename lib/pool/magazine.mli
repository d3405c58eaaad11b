(** The split freelist of the paper's per-CPU caching layer, as a plain
    data structure over OCaml values: a [main] stack served first and an
    [aux] stack holding one full target-sized batch in reserve.  Each
    half is a [target]-sized array, made from the first object stored
    (so no filler value is needed); a slide or a flush swaps the two
    arrays by pointer, so a hit allocates nothing.  Slots above a
    half's fill level keep stale references until overwritten, at most
    [2 * target] objects.

    Invariants:
    - single writer: only the owning domain reads or writes a magazine,
      with no synchronisation ({!Pool} keeps one per domain);
    - [main] holds at most [target] objects and [aux] [0] or [target];
    - a put onto a full [main] first hands off [aux] (if full) and
      slides [main] into [aux], so occupancy never exceeds [2 * target].
    {!check} tests the last two. *)

type 'a t

exception Empty

val create : target:int -> 'a t
(** @raise Invalid_argument if [target < 1]. *)

val target : 'a t -> int
val size : 'a t -> int

val get : 'a t -> 'a
(** [get t] pops from [main], sliding [aux] into [main] first if [main]
    is empty.
    @raise Empty when the magazine is empty. *)

val put : 'a t -> 'a -> [ `Ok | `Flush of 'a list ]
(** [put t x] pushes onto [main].  When [main] is full it slides [main]
    into [aux] and starts a fresh [main] with [x]; if [aux] was already
    full, its batch is returned as [`Flush batch] (exactly [target]
    elements, the last stored first) for the caller to hand to the
    depot. *)

val install : 'a t -> 'a list -> 'a list
(** [install t batch] loads the first [target] elements of a depot
    batch into an empty [main], its head served first, and returns the
    rest (a batch cut for a larger target).
    @raise Invalid_argument if [main] is non-empty. *)

val drain : 'a t -> 'a list
(** [drain t] empties the magazine, returning everything it held; the
    magazine keeps no reference to any object afterwards. *)

val check : 'a t -> bool
(** Invariant oracle for tests. *)
