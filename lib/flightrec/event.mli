(** Typed flight-recorder trace events.

    One constructor per instrumented action in the allocator and the
    simulator — the vocabulary tracks the source paper's anatomy: the
    per-CPU cache transitions of its Figure 2, the global-layer and
    coalesce-layer traffic of its Design section, the lock contention
    behind its Figures 7–9, and the reap / adaptive-target activity of
    the [Kma.Pressure] subsystem its Future Directions section
    proposes.  Events are plain host-side values: recording one never
    touches simulated memory and charges zero simulated cycles.  This
    module deliberately depends on nothing, so both [sim] and [kma] can
    emit events without a dependency cycle. *)

(** Which allocator layer satisfied (or was reached by) an operation.
    The per-CPU layer satisfying an allocation locally is the fast
    path; [Global] means the operation had to take a lock. *)
type layer = Percpu | Global | Pagepool | Vmblk | Kmem

val layer_name : layer -> string

type kind =
  | Alloc of { si : int; layer : layer }
      (** Small allocation of class [si], satisfied at [layer]
          ([Percpu]: main or aux list; [Global]: required a global-layer
          list transfer). *)
  | Alloc_fail of { si : int }  (** exhaustion: no block at any layer *)
  | Free of { si : int; layer : layer }
      (** Small free ([Percpu]: cached locally; [Global]: an aux list
          was handed to the global layer). *)
  | Gbl_get of { si : int; miss : bool }
      (** Global layer handed out a list; [miss] when it had to refill
          from the coalesce-to-page layer. *)
  | Gbl_put of { si : int; drain : bool }
      (** Global layer accepted a list; [drain] when overflow hysteresis
          pushed lists down to the page layer. *)
  | Page_grab of { si : int; page : int }
      (** Page layer split a fresh page for class [si]. *)
  | Page_return of { si : int; page : int }
      (** A fully-free page went back to the vmblk layer / VM system. *)
  | Vmblk_carve of { npages : int; page : int }
      (** A span of [npages] was carved out of the virtual arena. *)
  | Vmblk_coalesce of { npages : int; page : int }
      (** A span of [npages] was freed back and coalesced. *)
  | Large_alloc of { npages : int; ok : bool }
  | Large_free of { npages : int }
  | Lock_acquire of { lock : int; spins : int }
      (** Spinlock (identified by its word address) acquired after
          [spins] failed attempts; [spins > 0] is a contended acquire. *)
  | Lock_release of { lock : int }
  | Vm_grant  (** VM system granted a physical page *)
  | Vm_reclaim  (** a physical page was returned to the VM system *)
  | Vm_denial of { injected : bool }
      (** VM system refused a grant: pool exhausted, or [injected] by
          the fault-injection hook. *)
  | Reap of { full : bool }
      (** A [kmem_reap]-style pressure pass ran on this CPU: aux lists
          flushed and the global layer trimmed ([full] additionally
          flushes main lists and empties the global layer). *)
  | Target_adjust of { si : int; target : int; gbltarget : int; grow : bool }
      (** The pressure subsystem moved class [si]'s adaptive bounds to
          [target] / [gbltarget]; [grow] distinguishes additive recovery
          from multiplicative shrink under denial. *)
  | Lockcheck_violation of { rule : string }
      (** The lockcheck validator flagged a broken synchronization
          invariant ([rule] is its name, e.g. ["lock-order"]); the full
          diagnosis lives in the lockcheck report, the event marks where
          in the trace it happened. *)
  | Heapcheck_violation of { rule : string }
      (** The heapcheck consistency checker flagged a broken structural
          invariant ([rule] is its name, e.g. ["gbl-count"]); the full
          diagnosis lives in the heapcheck report, the event marks where
          in the trace it happened. *)

type t = {
  time : int;  (** simulated time (cycles) of the emitting CPU *)
  cpu : int;
  kind : kind;
}

val si_of : kind -> int option
(** [si_of k] is the size class an event concerns, when it has one. *)

val kind_name : kind -> string
(** Constructor name, for coarse filtering and rendering. *)

val pp : Format.formatter -> t -> unit
(** One-line rendering, ["[time] cpu<n> <kind> ..."]. *)
