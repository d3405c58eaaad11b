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

    In [`Adaptive] mode the pool retunes its own geometry with the
    [Kma.Pressure] discipline (DESIGN.md §14).  At each flush safe
    point it reads two signals: {e churn} — the depot lock was observed
    contended by this domain since its last safe point, or the flushed
    batch was dropped while the domain was also paying constructor
    cost (overflow and miss at once, the drain/refill oscillation
    shape) — grows [target] and the depot bound additively, one
    [grow_step] per signal up to the ceilings; {e oversupply} — a drop
    with no miss in sight — shrinks the excess multiplicatively,
    halving the distance back to the base.  Knobs move only at depot
    safe points, never on the magazine hit path; a domain's magazine
    takes the adapted target at its next flush or, once empty, depot
    get, so a domain that only allocates adapts too. *)

type 'a t

type mode = [ `Fixed | `Adaptive ]

type adapt_event = {
  ev_seq : int;  (** depot-flush sequence number when the step fired *)
  ev_grow : bool;
  ev_target : int;  (** desired magazine target after the step *)
  ev_bound : int;  (** desired depot bound after the step *)
}

val create :
  ctor:(unit -> 'a) ->
  ?reset:('a -> unit) ->
  ?target:int ->
  ?depot_batches:int ->
  ?mode:mode ->
  ?max_target:int ->
  ?max_depot_batches:int ->
  ?grow_step:int ->
  unit ->
  'a t
(** [create ~ctor ()] builds a pool.  [reset] is applied on release
    (e.g. zeroing); [target] (default 16) bounds each magazine half;
    [depot_batches] (default 32) bounds the depot, beyond which batches
    are dropped to the GC.  [mode] (default [`Fixed]) enables
    contention-adaptive geometry; [max_target] / [max_depot_batches]
    (defaults [8 * target] and [8 * depot_batches], at least 1) are the
    adaptation ceilings, and [grow_step] (default [target]) the
    additive growth per signal.

    @raise Invalid_argument if [target < 1], [depot_batches < 0],
    [grow_step < 1], or a ceiling is below its base. *)

val alloc : 'a t -> 'a
(** [alloc t] takes an object: magazine first, then a depot batch, then
    [ctor]. *)

val release : 'a t -> 'a -> unit
(** [release t x] resets and returns an object to the current domain's
    magazine, flushing a full batch to the depot as needed.  If [reset]
    raises, the exception propagates and [x] is abandoned to the GC:
    it re-enters neither magazine nor depot and is not counted as a
    free. *)

val with_obj : 'a t -> ('a -> 'b) -> 'b
(** [with_obj t f] allocates, runs [f], and releases (also on
    exceptions). *)

val flush_local : 'a t -> unit
(** [flush_local t] drains the calling domain's magazine to the depot
    (call before a domain exits to keep its stock usable by others). *)

val refill : 'a t -> batches:int -> int
(** [refill t ~batches] constructs up to [batches] full target-sized
    batches with [ctor] and deposits them, stopping early once the
    depot is full; returns the number kept.  This is the SpeedMalloc
    dedicated-allocation-core hook (PAPERS.md): a domain that loops on
    [refill] keeps worker domains from ever paying constructor cost.
    @raise Invalid_argument if [batches < 0]. *)

val adapt_now : 'a t -> contended:bool -> dropped:bool -> unit
(** Feed one raw adaptation signal at an explicit safe point:
    [contended] takes one additive grow step, otherwise [dropped] one
    multiplicative shrink step, then the calling domain's magazine is
    re-cut to the new target.  No-op in [`Fixed] mode.  Exists so
    tests and harnesses can drive a deterministic signal sequence and
    pin the resulting {!trajectory} exactly. *)

val stats : 'a t -> Pstats.t
val mode : 'a t -> mode

val target : 'a t -> int
(** The configured (base) magazine target. *)

val current_target : 'a t -> int
(** The adapted magazine target ([= target] in [`Fixed] mode). *)

val depot_bound : 'a t -> int
(** The adapted depot bound, in batches. *)

val depot_batches : 'a t -> int
(** Current depot stock, in batches. *)

val trajectory : 'a t -> adapt_event list
(** Adaptation steps in order taken (first 512 kept).  With a
    deterministic signal sequence — single domain, or {!adapt_now} —
    the trajectory is reproducible exactly. *)
