(** The simulated shared-memory multiprocessor.

    Each simulated CPU runs an ordinary OCaml function ("program") as an
    effect-handler coroutine.  Every memory access the program makes
    through this module's typed operations ({!read}, {!write},
    {!cas_val}, ...) is an effect; the discrete-event scheduler executes pending
    operations in virtual-time order (always the CPU with the smallest
    local clock, ties broken by CPU id), charges cycle costs from the
    {!Cache} model, and resumes the coroutine with the result.  The
    resulting global memory order is a legal sequentially-consistent
    interleaving, and runs are fully deterministic.

    Code between two operations executes atomically at a single virtual
    instant; all work a program does must therefore be accounted either
    by its memory operations or by explicit {!work} charges.  Simulated
    kernel code keeps its data structures in simulated memory so that its
    cache behaviour is emergent.

    {b Fast path.}  Performing an effect and resuming a continuation is
    the per-operation overhead that dominates simulator host time, so
    operations take a same-CPU fast path whenever the scheduler would
    pick the executing CPU next anyway: while its clock stays below
    every other pending CPU's (ties broken by id, mirroring the pick
    loop), the operation executes inline in host code and the whole
    batch of such operations costs one scheduler event.  Per-CPU
    freelist hits on exclusive lines — the common case the paper's
    allocator is built around — are exactly this shape.  The routing is
    an optimisation only: both paths funnel into one executor, so
    cycle counts, statistics and memory order are bit-identical with
    the fast path on or off (proven by the equivalence suite in
    [test/sim] and the fig7/E8 pins in [test/experiments]; see
    DESIGN.md "Simulator cost model").

    {b Running ahead.}  An operation that touches only the calling
    CPU's own state runs inline even when that CPU is not the next
    pick: {!spin_pause}, {!work}, {!cpu_id}, {!irq_disable},
    {!irq_enable}, and a {!read} or {!write} that hits a line declared
    private to the caller with {!Cache.own} (or a {!read} hit on a
    read-only line).  Such an
    operation changes only the caller's clock, retired count, interrupt
    flag, cache statistics and a line no other CPU accesses, so it
    commutes with every other CPU's operations.  Host code after it,
    however, runs before other CPUs' earlier events: host code that
    reads or writes host state other CPUs' host code also touches must
    call {!sync} first, which puts it back at its scheduled position.

    {b Spinning.}  A test-and-set acquisition ({!spin_cas}) resumes its
    program once, for the winning attempt: the failed attempts and the
    pauses between them run inline while the CPU is the next pick, and
    inside the scheduler, at the CPU's picks, once it is not.  Each
    runs through the same executor at the same clock as the loop of
    {!cas_val} and {!spin_pause} it stands for, so spinning is
    bit-identical to the scheduled path.

    {b Parking.}  A program waiting for host state another CPU's host
    code publishes (the trace replayer's cross-CPU free handoff) parks
    instead of polling through the scheduler; the publisher wakes it.
    A wake charges the sleeper exactly the polls a scheduled spin-wait
    would have made, so parking too is bit-identical to the scheduled
    path (see {!park}).

    Invariants: only a running program's host code may {!wake}; a
    parked CPU is off the scheduler heap until woken; a woken CPU is
    charged exactly the polls scheduled before the waker's publishing
    point, plus the one after it that sees the publication; nothing
    parks with the fast path off or a [max_cycles] watchdog armed —
    {!park} is then one scheduled poll — and nothing spins inside the
    scheduler then either: {!spin_cas} is the plain {!cas_val} and
    {!spin_pause} loop; an operation runs ahead of the
    schedule only if it touches nothing but its CPU's private state and
    owned or read-only lines, and never with the fast path off, a
    watchdog armed, or (for memory) a {!Cache.set_trace} hook installed;
    {!sync} re-enters the scheduler at the start key of the caller's
    latest run-ahead operation, so the host code after it runs exactly
    where the fully scheduled path runs it, and is a no-op when the
    caller has not run ahead since the scheduler last resumed it.

    Operations may only be performed from inside a program run by {!run};
    calling them elsewhere raises [Not_in_simulation]. *)

type t

exception Not_in_simulation
exception Deadlock of string

exception Watchdog of int
(** Raised by {!run} when a CPU's virtual clock passes the [max_cycles]
    watchdog: the simulated kernel is spinning without global progress
    (e.g. waiting on a signal nobody will send).  The payload is the
    clock value at expiry. *)

val create : Config.t -> t
(** [create cfg] is a machine with zeroed memory and cold caches. *)

val config : t -> Config.t
val memory : t -> Memory.t
(** [memory t] gives direct, uncharged access to the backing store.
    Reserved for boot-time initialisation and test oracles. *)

val cache : t -> Cache.t


(** {1 Running programs} *)

val run : ?max_cycles:int -> t -> (int -> unit) array -> unit
(** [run t progs] runs [progs.(i)] on CPU [i] (each receives its CPU id)
    until every program returns.  [Array.length progs] must be between 1
    and [ncpus].  Virtual time continues from where the previous [run]
    left off; caches stay warm between runs.  [max_cycles] (absolute
    virtual time; 0 = no limit) arms a watchdog against livelocked
    simulations.

    If a program raises, [run] abandons every unfinished program
    (parked ones included) before re-raising, so the machine stays
    usable.

    @raise Invalid_argument on a bad program count.
    @raise Watchdog when [max_cycles] is exceeded.
    @raise Deadlock naming the parked CPUs when every other program has
    finished, so no program is left to {!wake} them (a replayed trace
    whose handoffs form a cycle).  Spinlocks never deadlock: they always
    make progress in virtual time. *)

val run_symmetric : ?max_cycles:int -> t -> ncpus:int -> (int -> unit) -> unit
(** [run_symmetric t ~ncpus f] runs [f] on CPUs [0 .. ncpus-1]. *)

val elapsed : t -> int
(** [elapsed t] is the largest per-CPU virtual clock, in cycles. *)

val cpu_time : t -> cpu:int -> int
(** [cpu_time t ~cpu] is CPU [cpu]'s virtual clock. *)

val retired : t -> cpu:int -> int
(** [retired t ~cpu] counts instructions retired by [cpu]: one per memory
    or control operation, plus [n] per [work n]. *)

val reset_clocks : t -> unit
(** [reset_clocks t] zeroes all virtual clocks and retired-instruction
    counters (caches and memory keep their contents). *)

(** {1 Operations, usable only inside a running program}

    Each operation runs inline when its CPU is the scheduler's next pick
    and is scheduled otherwise, unless its doc says it runs ahead of the
    schedule.  The atomics ({!cas_val}, {!fetch_add}, {!fetch_or},
    {!fetch_and}, and each of {!spin_cas}'s attempts), {!now} and
    {!sync} never run ahead.
    Every atomic charges the same: one read-modify-write cache access
    plus the [rmw] geometry cost, retiring one instruction. *)

val read : Memory.addr -> int
(** [read a] is a load.  A hit on a line the caller {!Cache.own}s, or on a
    read-only line, runs ahead of the schedule. *)

val write : Memory.addr -> int -> unit
(** [write a v] is a store.  A hit on a line the caller {!Cache.own}s runs
    ahead of the schedule. *)

val cas_val : Memory.addr -> expected:int -> desired:int -> int
(** [cas_val a ~expected ~desired] is an atomic compare-and-swap that
    stores [desired] in word [a] if it holds [expected], and returns the
    {e witnessed} value: the swap happened iff the result equals
    [expected].  It is the compare-exchange shape lock-free retry loops
    want, so a failed attempt does not pay a separate reload.  A lock
    acquisition spins with {!spin_cas}. *)

val fetch_add : Memory.addr -> int -> int
(** [fetch_add a n] atomically adds [n] to word [a], returning the old
    value. *)

val fetch_or : Memory.addr -> int -> int
(** [fetch_or a n] atomically ORs [n] into word [a], returning the old
    value (the non-blocking allocators' status-word marking). *)

val fetch_and : Memory.addr -> int -> int
(** [fetch_and a n] atomically ANDs [n] into word [a], returning the old
    value. *)

val spin_cas : Memory.addr -> expected:int -> desired:int -> int
(** [spin_cas a ~expected ~desired] spins until a compare-and-swap of
    [a] from [expected] to [desired] wins, and returns the number of
    failed attempts.  It is exactly the loop
    {[ let rec go n =
         if cas_val a ~expected ~desired = expected then n
         else (spin_pause (); go (n + 1)) ]}
    — the same attempts and pauses, in the same order, at the same
    clocks and costs — except that the program runs again only after
    the winning attempt.  While the caller is the scheduler's next
    pick, attempts run inline; once it is not, the scheduler runs each
    remaining attempt at the caller's pick, then the pause after a
    failure, then further attempts inline while the caller stays the
    next pick, and re-keys it otherwise, all without resuming the
    program.  With the fast path off or a [max_cycles] watchdog armed
    it is the plain {!cas_val} and {!spin_pause} loop above, the oracle
    the fast = scheduled proofs compare against: with the fast path off
    every attempt and pause is one scheduled operation; with a watchdog
    armed every pause is, and an attempt still runs inline while the
    caller is the next pick.  A
    word that never again holds [expected] spins it forever (or until
    the watchdog fires). *)

val work : int -> unit
(** [work n] charges [n] cycles of pure compute (models straight-line
    instructions that touch no shared memory).  Runs ahead of the
    schedule. *)

val spin_pause : unit -> unit
(** [spin_pause ()] charges one spin-wait pause and yields the bus.  The
    pause costs between 4 and 16 cycles, varied
    by a deterministic per-CPU hash: the jitter models real bus
    arbitration and keeps spin loops from phase-locking against another
    CPU's periodic critical section (a livelock artifact of purely
    deterministic discrete-event timing).

    Contract: the host code between a [spin_pause] and the program's
    next operation must be pure loop control over program-private data
    (every spin site in a test-and-set or barrier loop re-checks the
    condition through a memory operation).  A spin touches only the
    spinning CPU's private state, so under that contract the simulator
    may execute it inline without a scheduler round trip even when
    another CPU's clock is behind: it runs ahead of the schedule like
    every private operation, and host code after it that does touch
    shared host state must call {!sync} first.  A loop that instead
    waits for host-side state published by another CPU's host code must
    use {!park}. *)

val park : unit -> unit
(** [park ()] waits, as one step of a polling loop, for host-side state
    another CPU's host code will publish and then signal with {!wake}.
    The caller re-checks its condition after every return, exactly as
    around a poll:
    {[ while not (published ()) do register_waiter (); Machine.park () done ]}

    It stands for a spin-wait of scheduled polls, each charged exactly
    like {!spin_pause}.  Rather than running them, [park] takes the CPU
    off the scheduler; {!wake} later charges the polls that would have
    run before the publication and returns after the first poll that
    would have seen it.  With the fast path off or a watchdog armed,
    [park] is that single scheduled poll instead, so a loop around it
    busy-waits through the scheduler. *)

val wake : int -> unit
(** [wake cpu] is called from a running program's host code right after
    it publishes state that CPU [cpu] may be parked on.  Its
    {e publishing point} is the scheduled position (clock, CPU id) of
    the caller's latest operation: host code runs where that operation
    started.  [wake] reads the caller's clock, which is that point only
    if the latest operation was zero-cost — so publish and wake right
    after a {!now} (the trace replayer wakes after the [now] that ends
    an allocation).

    A parked [cpu] is charged one poll for every poll position
    (clock, [cpu]) before the publishing point, then re-enters the
    scheduler with its next poll pending, where it re-checks.  Host code
    that runs while {!run} is still launching programs precedes every
    poll: a wake from there charges nothing, and the sleeper's next
    poll is its first.  [wake] is a no-op when [cpu] is not parked — in
    particular whenever [park] only polls.
    @raise Not_in_simulation outside a running program's host code. *)

val sync : unit -> unit
(** [sync ()] anchors the host code that follows it.  If the caller has
    run an operation ahead of the schedule since the scheduler last
    resumed it, [sync] yields and re-enters the scheduler at the start
    key (clock, CPU id) of the latest such operation — below the
    caller's clock — so the host code after it runs exactly where the
    fully scheduled path runs it: after every other CPU's earlier
    events and before its later ones.  Otherwise, and outside a
    running program, it does nothing.  It charges no cycles and retires
    nothing.

    Contract: host code that reads or writes host state that other
    CPUs' host code also touches (a shared table, a shared PRNG, a
    counter another CPU reads mid-run) calls [sync] first, and again
    after any run-ahead operation it performs before the next such
    access.  Commutative updates nobody reads mid-run (statistics
    counters, flight-recorder emits into per-CPU rings) need none.
    [sync] does not make the caller's clock a publishing point for
    {!wake}: publish after a {!now}. *)

val cpu_id : unit -> int
(** [cpu_id ()] is the current CPU's id.  It costs no cycles and retires
    nothing (models reading a per-CPU register), and it runs ahead of
    the schedule, so it is not a yield point: host code after it sees
    no other CPU's progress unless it calls {!sync}. *)

val now : unit -> int
(** [now ()] is the current CPU's virtual clock (no cycles; models a
    cycle counter read).  Unlike the private operations it never runs
    ahead: it executes at the caller's scheduled position, so the host
    code after it runs where the scheduler puts it, which makes it the
    publishing point {!wake} relies on. *)

val irq_disable : unit -> unit
(** [irq_disable ()] models disabling interrupts on the current CPU.
    Runs ahead of the schedule. *)

val irq_enable : unit -> unit
(** [irq_enable ()] re-enables them.  Runs ahead of the schedule. *)

val irq_disabled_oracle : t -> cpu:int -> bool
(** [irq_disabled_oracle t ~cpu] is CPU [cpu]'s interrupt flag (host-side
    test oracle). *)

val resumes_oracle : t -> int
(** [resumes_oracle t] counts the program resumes [t]'s scheduler has
    made since {!create}: one per operation it executed for a program,
    and one per won {!spin_cas} however many attempts it ran.  Launches
    and inline operations are not resumes.  A deterministic measure of
    host cost (test oracle: the resume pins bound it per operation). *)

(** {1 Host-side observation} *)

val running : unit -> (int * int) option
(** [running ()] is [Some (cpu, now)] while a simulated program's host
    code is executing — the id and current virtual clock of that CPU —
    and [None] outside any simulation.  Unlike {!cpu_id} and {!now}
    this is NOT an operation: it performs no effect and so introduces no
    scheduler yield point.  Instrumentation that must not perturb the
    simulation (the flight recorder's emit paths) uses this; an
    operation, even a free one, splits the host code around it into
    separately scheduled slices and changes how same-instant host code
    on different CPUs interleaves. *)

val running_irq_off : unit -> bool
(** [running_irq_off ()] is the interrupt-disable flag of the currently
    executing CPU ([false] outside any simulation).  Same contract as
    {!running}: host-side, not an operation, no yield point — this is
    what the lockcheck interrupt-discipline probe reads. *)

val peek : Memory.addr -> int
(** [peek a] is the word at [a] in the executing machine's memory.
    Same contract as {!running}: host-side, not an operation, no yield
    point; it charges no cycles, retires nothing and leaves the cache
    untouched.  It serves the simulated kernel's [assert]s alone
    (doclint enforces this).  Each reads a word that its CPU's lock
    guards, or that lies in a block or span the CPU owns, so the word
    is stable, the check costs no simulated cycles, and [-noassert]
    changes no simulated result.
    @raise Not_in_simulation outside a running program's host code. *)

(** {1 Fast-path control (test oracles)} *)

val set_fast_path_oracle : bool -> unit
(** [set_fast_path_oracle false] forces every operation through the
    effect handler and the scheduler loop: the scheduled path, the
    reference every fast = scheduled proof compares against.
    Process-wide, intended for the equivalence proofs only (run a
    workload both ways, require bit-identical cycles and state); call
    it before any domain is spawned. *)

val fast_path_enabled_oracle : unit -> bool
(** Whether the same-CPU inline fast path is active (the default). *)
