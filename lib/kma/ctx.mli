(** Shared allocator context threaded through every layer: the
    per-engine allocator state the paper's Design section distributes
    across its four layers, minus the parts that live in simulated
    memory.

    Created once at boot by {!Kmem.create}; the layer modules
    ({!Percpu}, {!Global}, {!Pagepool}, {!Vmblk}) keep all their mutable
    state in simulated memory and use this record only for the machine
    handle, the layout constants, the lock handles and the host-side
    instrumentation. *)

(** Memory-pressure control block, owned and driven by {!Pressure} but
    stored here so layers 1–2 can consult it without a dependency
    cycle.  Like {!Params}, the desired targets stand in for the
    kernel's compiled-in tunables: reading one from simulated code is
    uncharged (an immediate operand); what *is* charged is propagating
    a changed target into a per-CPU cache's [o_target] word, which
    only the owning CPU does, at the {!Percpu} slow-path safe points
    ([pcc_targets] is the host-side shadow of those words that lets
    the safe-point check cost nothing when nothing changed). *)
type pressure_state = {
  mutable enabled : bool;
      (** when false (the default) every field is inert and the
          allocator behaves exactly as without this subsystem *)
  desired_targets : int array;  (** per-class adaptive [target] *)
  desired_gbltargets : int array;  (** per-class adaptive [gbltarget] *)
  pcc_targets : int array;
      (** shadow of each per-CPU cache's target word, indexed
          [cpu * nsizes + si] *)
  mutable below_default : int;
      (** number of classes currently below their {!Params} default —
          0 means fully recovered, making the grow check O(1) *)
  mutable denial_streak : int;
      (** consecutive allocation-visible denials with no recovery *)
  mutable grants_snapshot : int;  (** VM grant count at last adjustment *)
  mutable denials_snapshot : int;
      (** VM denial count at last adjustment *)
  mutable clean_allocs : int;
      (** denial-free successful allocations since the last adjustment —
          the recovery clock that still ticks when the workload is
          served entirely from the caches and needs no VM grants *)
}

type t = {
  machine : Sim.Machine.t;
  layout : Layout.t;
  vmsys : Sim.Vmsys.t;
  stats : Kstats.t;
  glocks : Sim.Spinlock.t array;
      (** global-layer locks, one per (node, size) indexed
          [node * nsizes + si] — length [nnodes * nsizes]; on a flat
          machine this is exactly the per-size array it always was *)
  plocks : Sim.Spinlock.t array;  (** per-size coalesce-to-page locks *)
  vlock : Sim.Spinlock.t;  (** coalesce-to-vmblk lock *)
  pressure : pressure_state;
  numa_global : bool;
      (** when true, {!Global} keeps a separate gblfree per NUMA node
          and each CPU drains/fills against its own node's pool; when
          false (the default) only node 0's records are ever touched
          and the layer is bit-identical to the pre-NUMA allocator *)
}

val memory : t -> Sim.Memory.t
val params : t -> Params.t

val make_pressure_state : ncpus:int -> params:Params.t -> pressure_state
(** A disabled pressure state with every target at its {!Params}
    default (boot-time, host-side). *)

