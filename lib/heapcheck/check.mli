(** Deterministic heap-consistency checker for the allocator: the
    structural invariants the paper's Design section relies on but
    never states, made executable.

    The paper's four-layer design only works because a handful of
    representation invariants hold at every quiescent point: the global
    layer's list-of-lists carries honest count words and (by its own
    stated contract) only target-sized lists; a split page's [pd_nfree]
    equals its intra-page chain length and names the radix bucket the
    descriptor sits on, with [minhint] a true lower bound; the page
    descriptors of every vmblk tile into a legal boundary-tag encoding
    (free spans bounded by [st_free_head]/[st_free_tail] with
    consistent back-pointers, no orphaned interior states readable as a
    boundary); blocks are conserved across the layers (per-CPU + global
    + page-layer free + outstanding = split capacity, and every granted
    physical page is a split page or part of an allocated span); and no
    address sits on two freelists.  {!check} verifies all of that
    host-side in one pass over simulated memory.

    Like the flight recorder and {!Lockcheck}, the checker is
    zero-perturbation: it reads memory with uncharged [Memory.get],
    identifies the emitting CPU with the host-side
    [Sim.Machine.running] accessor, and performs no simulated
    operation, so simulated cycle counts are bit-identical with the
    checker on or off (enforced by [test/heapcheck]).

    Soundness caveat: a global check is only meaningful at a quiescent
    point — between operations of a single-CPU program (host code
    between operations runs atomically), or after [Machine.run]
    returns.  Mid-run, other CPUs may be suspended inside a critical
    section and the structures legitimately inconsistent.

    Invariants: {!check} and {!checkpoint} must run only at quiescent
    points (no simulated CPU inside an allocator critical section); the
    checker itself takes no locks, charges no cycles, and never writes
    simulated memory. *)

(** The invariant families checked. *)
type rule =
  | Gbl_count
      (** a gblfree/bucket count word disagrees with its chain, or a
          list is not target-sized *)
  | Percpu_count
      (** a per-CPU count word disagrees with its chain, or the
          main/aux target discipline is broken *)
  | Page_nfree
      (** [pd_nfree] disagrees with the intra-page chain or the radix
          bucket the descriptor sits on *)
  | Minhint  (** [minhint] is not a lower bound on the occupied buckets *)
  | Span_state
      (** the page descriptors do not tile into a legal boundary-tag
          encoding, or disagree with the free-span list *)
  | Conservation
      (** blocks or pages are not conserved across the four layers *)
  | Dup_block  (** one address sits on two freelists *)

val rule_name : rule -> string
(** ["gbl-count"], ["percpu-count"], ["page-nfree"], ["minhint"],
    ["span-state"], ["conservation"], ["dup-block"]. *)

type violation = { rule : rule; detail : string }

val check : ?live:int array -> Kma.Kmem.t -> violation list
(** [check k] walks the allocator's structures in [k]'s simulated
    memory and returns every broken invariant (empty list = consistent).
    [live], when given, is the caller's count of outstanding small
    blocks per size class (a differential fuzzer's reference model);
    it upgrades the per-class conservation check from an inequality
    ([free <= capacity]) to an exact equation.  Pure and host-side:
    no simulated cycles, no writes, never raises on corrupt data. *)

(** {1 Fragmentation sampling} *)

(** One fragmentation sample: how the pages granted by the VM system
    are spent at a quiescent point.  [split_pages] are carved into
    small blocks for some size class, [span_pages] sit inside
    allocated large spans, [free_span_pages] are coalesced and ready to
    return; [free_blocks]/[free_bytes] total the small blocks cached on
    any freelist (per-CPU, global, or page layer).  A fragmentation
    curve compares [granted_pages] against the workload's live bytes
    over time: pages held while the live set shrinks is the
    fragmentation blow-up the paper's coalesce-to-page layer exists to
    prevent. *)
type frag = {
  granted_pages : int;
  split_pages : int;
  span_pages : int;
  free_span_pages : int;
  free_blocks : int;
  free_bytes : int;
}

val fragmentation : Kma.Kmem.t -> frag
(** [fragmentation k] is one sample, taken with the same host-side
    page-descriptor walk as {!check} (uncharged reads, no writes, no
    simulated cycles; quiescent points only, like {!check}).  Never
    raises on corrupt data. *)

(** {1 Lifecycle (the {!Lockcheck} enable/on/report idiom)} *)

exception Violation of string
(** Raised by {!note} / {!checkpoint} on the first recorded violation
    when the checker was enabled with [abort = true] (the default). *)

(** How often a driver should check: after every operation, or every
    [n] operations (the fuzzer's cheap sweep). *)
type mode = Paranoid | Sweep of int

val enable : ?abort:bool -> ?mode:mode -> unit -> unit
(** [enable ()] installs a fresh checker state (any previous state is
    discarded).  With [abort = false], violations are recorded and
    emitted as flight-recorder events but do not raise — for drivers
    that want a post-run report rather than a crash.

    The state itself is domain-local (installed in the calling domain);
    the (abort, mode) configuration is additionally published
    cross-domain so that {!shard} can arm identically-configured fresh
    states inside [Parallel.map] worker domains.
    @raise Invalid_argument if [mode] is [Sweep n] with [n < 1]. *)

val disable : unit -> unit
(** Drop the checker state; {!on} becomes false.  Idempotent. *)

val on : unit -> bool
(** The single branch instrumentation sites test. *)

val mode : unit -> mode option
(** The enabled mode, for drivers choosing a checking cadence. *)

val note : violation -> unit
(** [note v] records a violation found by an external caller (the
    fuzzer): appends it, emits a [Heapcheck_violation] flight-recorder
    event via the host-side [Machine.running] accessor, and raises
    {!Violation} when enabled with [abort = true].  No-op while {!on}
    is false. *)

val checkpoint : ?live:int array -> Kma.Kmem.t -> unit
(** [checkpoint k] runs {!check} and {!note}s every violation — the
    one-call hook experiment drivers place at quiescent points.  No-op
    while {!on} is false. *)

(** {1 Sharding (checker-enabled cells under [Parallel.map])} *)

type harvest
(** What one sharded cell's checker saw: its checkpoint count and its
    violations in the order found. *)

val shard : (unit -> 'a) -> 'a * harvest option
(** [shard f] runs one experiment cell with a private, fresh checker
    state in the {e current} domain — safe from any [Parallel.map]
    worker.  If the checker is enabled (in the driving domain), the
    fresh state copies its (abort, mode) configuration, [f]'s
    checkpoints and violations land in it, and the harvest is returned
    for the driver to {!absorb}; the domain's previous state is
    restored on the way out, exceptional or not.  If the checker is
    disabled, [shard f] is just [(f (), None)].

    Because the jobs:1 and jobs:N paths run the same code, absorbing
    every cell's harvest in input order yields a report bit-identical
    to a sequential run — the checker analogue of [Parallel.map]'s
    determinism contract.  With [abort = true] a violation still
    raises {!Violation} inside the cell; [Parallel.map] re-raises the
    smallest input index's exception, matching the sequential run. *)

val absorb : harvest option -> unit
(** [absorb h] merges a {!shard} harvest into the calling domain's
    enabled state, preserving the cell's violation order.  Drivers call
    it once per cell, in input order.  No-op on [None] or while {!on}
    is false. *)

(** {1 Results (host-side)} *)

val violation_count : unit -> int

val check_count_oracle : unit -> int
(** Checkpoints run since {!enable} (test oracle). *)

val report : unit -> string
(** Text report: checkpoints run, per-rule violation counts, and every
    recorded violation in full. *)
