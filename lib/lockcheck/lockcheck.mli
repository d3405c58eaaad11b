(** Lockdep-style dynamic validator of the paper's synchronization
    discipline.

    The paper's allocator rests on three conventions: the per-CPU layer
    is protected {e only} by disabling interrupts on the owning CPU, the
    global and coalescing layers by spinlocks taken in a fixed order,
    and (in a real kernel) no ordinary lock may be held across a call
    into the VM system.  This module {e checks} those conventions at run
    time, in the spirit of Linux's lockdep:

    - a {b lock-order graph} over lock {e classes}: an edge A→B is
      recorded the first time a lock of class B is acquired while one of
      class A is held; completing a cycle (a potential ABBA deadlock) is
      a violation, reported with both acquisition backtraces — the
      deadlock is caught from a {e single} benign run, no unlucky
      interleaving needed;
    - an {b interrupt-discipline check}: every probe of per-CPU cache
      state asserts interrupts are disabled on the executing CPU and
      that the state belongs to that CPU;
    - a {b hold-across-blocking check}: entering the VM system with any
      spinlock held is a violation unless every held lock's class was
      registered [vm_safe] (see DESIGN.md "Concurrency invariants" for
      why this reproduction exempts the allocator's own locks).

    The checker is entirely host-side: hooks receive the executing CPU
    and its clock from [Sim.Machine.running] and perform no simulated
    operation, so simulated cycle counts are bit-identical with the
    checker on or off (the same zero-perturbation contract as the
    flight recorder; enforced by [test/lockcheck]).  This module
    deliberately depends only on [flightrec] (to emit violation
    events), so [sim] and [kma] can both call in without a cycle.

    Instrumentation contract: when {!on} is false every hook is a
    single host branch.  Enable the checker {e before} booting the
    structures under test so boot-time [register_lock] calls land in
    the live state. *)

exception Violation of string
(** Raised at the offending acquisition/access when a check fails and
    the checker was enabled with [abort = true] (the default).  The
    message names the rule, the locks/CPUs involved, and — for
    lock-order cycles — both acquisition backtraces. *)

(** The three invariants checked. *)
type rule = Lock_order | Irq_discipline | Vm_hold


(** {1 Lifecycle} *)

val enable : ?abort:bool -> unit -> unit
(** [enable ()] installs a fresh checker state (any previous state is
    discarded).  With [abort = false], violations are recorded and
    emitted as flight-recorder events but do not raise — for drivers
    that want a post-run report rather than a crash. *)

val disable : unit -> unit
(** Drop the checker state; {!on} becomes false.  Idempotent. *)

val on : unit -> bool
(** The single branch every instrumentation site tests. *)

(** {1 Lock registry}

    Locks are identified by the address of their word of simulated
    memory and grouped into {e classes} (lockdep's key idea: order is a
    property of classes like "the per-size global-layer lock", not of
    the O(nsizes) instances).  Unregistered locks get a private
    per-instance class named ["lock@<addr>"] and are {e not} [vm_safe]. *)

val register_lock :
  addr:int -> name:string -> ?cls:string -> ?vm_safe:bool -> unit -> unit
(** [register_lock ~addr ~name ()] names the lock at [addr] and assigns
    it to class [cls] (default: [name]).  [vm_safe] (default [false])
    marks the class as legal to hold across a VM-system call.
    Re-registration updates in place; no-op while {!on} is false. *)

(** {1 Hooks (called by [Sim.Spinlock], [Sim.Vmsys], [Kma.Percpu])}

    All hooks take the executing CPU and its simulated clock explicitly
    — callers obtain them from [Sim.Machine.running] so this module
    never performs a simulated operation. *)

val acquire : cpu:int -> time:int -> addr:int -> unit
(** Record a successful acquisition: push onto [cpu]'s held stack,
    record order edges from every held class, and check for recursion,
    same-class nesting and order cycles. *)

val release : cpu:int -> time:int -> addr:int -> unit
(** Record a release (removes the lock from [cpu]'s held stack; a
    release of a lock the checker never saw acquired is ignored, so the
    checker may be enabled mid-run). *)

val percpu_access : cpu:int -> time:int -> owner:int -> irq_off:bool -> unit
(** Interrupt-discipline probe: simulated code on [cpu] is touching the
    per-CPU cache state owned by CPU [owner].  Violations: interrupts
    enabled, or [cpu <> owner]. *)

val vm_call : cpu:int -> time:int -> what:string -> unit
(** Hold-across-blocking probe: simulated code on [cpu] is entering the
    VM system ([what] is ["grant"] or ["reclaim"]).  Violation: any
    held lock whose class is not [vm_safe]. *)

(** {1 Results (host-side)}

    The tallies below are test oracles; drivers read {!report}. *)

val violations_oracle : unit -> (rule * string) list
(** All recorded violations, oldest first (empty list when disabled). *)

val violation_count_oracle : unit -> int

val check_count_oracle : rule -> int
(** How many times the given invariant was checked (acquisitions
    processed / per-CPU probes / VM-entry probes). *)

val order_edges_oracle : unit -> (string * string) list
(** The recorded class-order edges, sorted. *)

val max_hold_depth_oracle : unit -> int
(** The deepest simultaneous lock nesting seen on any CPU. *)

val report : unit -> string
(** Text report: locks seen (name, class, vm-safe, acquisitions), the
    order edges with where each was first recorded, max hold depth,
    per-invariant check counts, and any violations in full. *)
