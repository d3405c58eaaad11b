(** A per-domain object pool for OCaml 5, after McKenney & Slingwine's
    per-CPU kernel memory allocator (USENIX Winter 1993).

    Each domain keeps a {!Magazine} (the paper's per-CPU cache: a split
    freelist of two [target]-sized arrays) and a {!Pstats} cell, both
    found with one [Domain.DLS] lookup and used without any
    synchronisation: a magazine hit allocates nothing and touches no
    atomic.  Magazines exchange whole target-sized batches with a
    mutex-protected {!Depot} (the paper's global layer), so the lock
    is touched at most once per [target] operations.  The paper's
    coalescing layers have no analogue under a GC: objects dropped on
    depot overflow are simply collected (see DESIGN.md).

    Use it for expensive-to-build, resettable objects (buffers, large
    records, scratch tables):

    {[
      let pool = Pool.create ~ctor:(fun () -> Bytes.create 65536) ()
      let buf = Pool.alloc pool in
      (* ... use buf ... *)
      Pool.release pool buf
    ]}

    [alloc]/[release] are safe from any domain; each domain transparently
    gets its own magazine.  An object must be released at most once and
    not used after release (not checkable here; the test suite checks it
    for the pool's own traffic).

    In [`Adaptive] mode the pool grows its own geometry in answer to
    depot traffic (DESIGN.md §14.2).  It keeps one level [k], from 0
    to 7: magazine target [target * (1 + k)] and depot bound
    [depot_batches * (1 + k)] ([min 1 k] when [depot_batches = 0]).  At
    a flush safe point, a dropped batch or a depot lock this domain
    found contended since its last flush raises the level one step;
    nothing lowers it.  A domain's magazine takes the current level's
    target at its next flush or, once empty, its next depot get, so a
    domain that only allocates adapts too.

    Invariants:
    - only the owning domain touches its slot: the magazine, the
      {!Pstats} cell and the contention latch;
    - the level changes only at the safe points (it is raised at a
      flush, and adopted there and at a depot get), only upward, one
      step per signal, at most to 7;
    - the hit path reads no adaptive state. *)

type 'a t

type mode = [ `Fixed | `Adaptive ]

val create :
  ctor:(unit -> 'a) ->
  ?reset:('a -> unit) ->
  ?target:int ->
  ?depot_batches:int ->
  ?mode:mode ->
  unit ->
  'a t
(** [create ~ctor ()] builds a pool.  [reset] is applied on release
    (e.g. zeroing); [target] (default 16) bounds each magazine half;
    [depot_batches] (default 32) bounds the depot, beyond which batches
    are dropped to the GC.  [mode] (default [`Fixed]) enables the
    grow-only adaptive geometry, up to 8 times both bases.

    @raise Invalid_argument if [target < 1] or [depot_batches < 0]. *)

val alloc : 'a t -> 'a
(** [alloc t] takes an object: magazine first, then a depot batch, then
    [ctor]. *)

val release : 'a t -> 'a -> unit
(** [release t x] resets and returns an object to the current domain's
    magazine, flushing a full batch to the depot as needed.  If [reset]
    raises, the exception propagates and [x] is abandoned to the GC:
    it re-enters neither magazine nor depot and is not counted as a
    free. *)

val flush_local : 'a t -> unit
(** [flush_local t] drains the calling domain's magazine to the depot
    (call before a domain exits to keep its stock usable by others). *)

val stats : 'a t -> Pstats.t
val mode : 'a t -> mode

val current_target : 'a t -> int
(** The current level's magazine target ([= target] in [`Fixed]
    mode). *)

val depot_bound : 'a t -> int
(** The current level's depot bound, in batches. *)

val depot_batches_oracle : 'a t -> int
(** Current depot stock, in batches (host-side test oracle). *)
