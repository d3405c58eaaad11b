(** Allocation traces: record, synthesise, transform and replay
    multi-CPU alloc/free event streams against any allocator.

    The paper's evaluation ran live kernel workloads; allocator research
    since has standardised on traces so that one workload can be
    replayed bit-for-bit against competing allocators and mined for
    pathologies.  A trace is a sequence of events over abstract object
    ids; every event names the CPU it runs on and the inter-arrival
    {e gap} (cycles of think time since that CPU's previous event), so a
    recorded workload replays with its timing and its cross-CPU free
    traffic intact.  Replay maps ids to whatever addresses the
    allocator under test returns.  Traces are in-memory values: the
    scenario library generates them, {!record} captures them, and
    nothing reads or writes them as text. *)

type event =
  | Alloc of { cpu : int; gap : int; id : int; bytes : int }
  | Free of { cpu : int; gap : int; id : int }

type t = event list

val cpu_of : event -> int
val id_of : event -> int

val ncpus : t -> int
(** [ncpus t] is [1 + ] the largest CPU id in [t] (1 for the empty
    trace): the machine width a replay needs. *)

val synthesize :
  ?seed:int -> ?ncpus:int -> ?mean_gap:int -> ops:int -> unit -> t
(** [synthesize ~ops ()] builds a well-formed trace: every [Free] names
    a live id, at most 64 ids are live at once, and everything left
    live is freed at the end (so replaying leaves the allocator empty).
    Request sizes are weighted toward small tracking structures (16 to
    64 bytes), with occasional page-sized buffers; [ncpus] (default 1)
    spreads events over CPUs with naturally-occurring cross-CPU frees;
    [mean_gap] (default 0) draws each event's inter-arrival gap
    uniformly from [[0, 2*mean_gap]]. *)

val validate : t -> (unit, string) result
(** [validate t] checks trace well-formedness: no double allocation of
    an id, no free of a dead id, every id freed by the end, and no
    negative CPU, gap or size field. *)

(** {1 Scaling transforms}

    Replay one recording at production scale: each transform is pure
    and deterministic, so a transformed trace is as reproducible as the
    original. *)

val scale_rate : factor:float -> t -> t
(** [scale_rate ~factor t] divides every inter-arrival gap by [factor]:
    [factor > 1.] replays the same workload at a higher arrival rate.
    @raise Invalid_argument if [factor <= 0]. *)

val fan_out : copies:int -> t -> t
(** [fan_out ~copies t] replays [copies] independent clones of the
    workload side by side: copy [c] of an event runs on
    [cpu + c * ncpus t] with its id deterministically remapped to
    [id * copies + c] (so clones never collide).  [copies = 1] is the
    identity.  @raise Invalid_argument if [copies < 1]. *)

val skew_frees : ?seed:int -> fraction:float -> t -> t
(** [skew_frees ~fraction t] moves that fraction of the [Free] events
    to a different (deterministically drawn) CPU, turning a same-CPU
    workload into a producer/consumer remote-free one.  No-op on
    single-CPU traces.  @raise Invalid_argument if [fraction] is
    outside [[0, 1]]. *)

(** {1 Replay} *)

type result = {
  ops : int;
  failures : int;  (** allocations the allocator could not satisfy *)
  skipped_frees : int;
      (** frees with nothing to release because their allocation was
          denied (or the trace was malformed): a denial run is not
          mistaken for a leak-free run *)
  cycles : int;
}

val replay :
  ?on_op:(cpu:int -> alloc:bool -> latency:int -> unit) ->
  Sim.Machine.t ->
  t ->
  Baseline.Allocator.t ->
  result
(** [replay m t a] replays the whole trace across CPUs
    [0 .. ncpus t - 1] of [m] (host-side call: it runs the machine
    itself).  Each CPU executes its events in trace order, charging the
    event's gap as think time first; a cross-CPU free waits until the
    allocating CPU has published the address (or had the allocation
    denied), charged as a real consumer spin-polling for work.  The
    waiting CPU parks ({!Sim.Machine.park}) and the allocating CPU
    wakes it, so the host skips the polls that cannot succeed; the
    cycles are those of polling, bit for bit.  [on_op], if given,
    observes every completed operation host-side with its simulated
    latency (gap and handoff wait excluded).  The ids are mapped once,
    when the replay starts, to dense slots [0 .. n-1], so replaying an
    event costs a few array accesses rather than id-keyed table
    lookups.  The replay's host bookkeeping is shared by every CPU, so
    it runs only at scheduled positions (after a {!Sim.Machine.now}, or
    a {!Sim.Machine.sync} after a think-time gap).
    @raise Invalid_argument if [m] has fewer than [ncpus t] CPUs.
    @raise Sim.Machine.Deadlock if the trace's handoffs form a cycle
    (a malformed trace {!validate} rejects), naming the waiting CPUs. *)

(** {2 Windowed replay}

    A pathology analyzer wants quiescent points mid-trace (to sample
    fragmentation, run heap checks).  A session replays the trace in
    windows of global trace order; between [step]s no simulated CPU is
    mid-operation, so host-side sampling is sound. *)

type session

val start : Sim.Machine.t -> Baseline.Allocator.t -> t -> session
(** [start m a t] prepares a replay, mapping [t]'s ids to dense slots;
    nothing runs yet. *)

val step :
  ?on_op:(cpu:int -> alloc:bool -> latency:int -> unit) ->
  session ->
  int ->
  bool
(** [step s n] replays the next [n] events (in global trace order,
    partitioned per CPU) and returns whether events remain.
    @raise Invalid_argument if [n < 1]. *)

val live_bytes : session -> int
(** Bytes currently allocated-and-not-freed by the replay: the honest
    live set a fragmentation ratio compares pages held against. *)

val finish : session -> result

val record : Baseline.Allocator.t -> (Baseline.Allocator.t -> unit) -> t
(** [record a f] runs [f] with a wrapped allocator handle and returns
    the trace of what [f] did, in execution order with per-CPU
    inter-arrival gaps measured from the simulated clocks — replaying
    the result on a fresh identical machine reproduces the recorded
    run's cycle count exactly (single-CPU; proven in [test/scenario]).
    The wrapper observes CPU and time via the host-side
    [Sim.Machine.running] accessor, so recording perturbs nothing, and
    anchors its shared bookkeeping with {!Sim.Machine.sync}, so the
    recorded order is the scheduled order.
    [f] (or the caller) must run the allocator traffic on simulated
    CPUs like any other workload. *)
