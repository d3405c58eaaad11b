(** Memory-pressure subsystem: [kmem_reap]-style draining plus online
    adaptation of [target] / [gbltarget] — the dynamic-target idea the
    paper leaves as its Future Directions proposal, built from the
    administrative operations its Design section already requires
    (per-CPU drains, global-layer drains, coalesce-to-page returns).

    The subsystem is strictly opt-in: until {!enable} is called the
    allocator's behaviour, cycle counts and statistics are bit-for-bit
    those of the plain paper allocator (every hook is a single host
    branch), and the calibrated warm fast paths are never altered
    either way, because adaptive bounds reach layer 1 only at the
    slow-path safe points ({!Percpu} re-reads its target word while
    interrupts are disabled, so layer 1 stays lock-free).

    Policy, a set of fixed constants:
    - on an allocation-visible denial every class's [target] and
      [gbltarget] halve (one right shift), floored at 1, so layer 1
      keeps its split freelist even under the worst pressure;
    - after 4 consecutive denial-free VM grants, or 64 denial-free
      successful allocations (the clock for workloads the shrunk caches
      serve without any VM traffic), every shrunk bound grows back by
      1, up to its {!Params} default;
    - a denied allocation is retried at most 8 times, each retry
      preceded by a reap pass (light first, then full), before
      degrading to failure. *)

val enable : Ctx.t -> unit
(** [enable ctx] arms the subsystem (host-side switch): adaptive
    bounds start at the {!Params} defaults, and {!Kmem} / {!Cookie}
    allocation paths gain the reap-and-retry loop. *)

(** {1 Simulated operations} *)

val reap : Ctx.t -> full:bool -> int
(** [reap ctx ~full] runs one pressure pass on the current simulated
    CPU and returns the number of physical pages returned to the VM
    system.  [full = false]: flush this CPU's reserve ([aux]) lists
    and trim each global layer to one list.  [full = true]: flush both
    halves of this CPU's caches and empty the global layer, so every
    drainable page goes back.  Emits a [Reap] flight-recorder event. *)

val with_retries : Ctx.t -> (unit -> int) -> int
(** [with_retries ctx attempt] is [attempt ()] with the bounded
    reap-and-retry path of {!Kmem.try_alloc} wrapped around it when
    the subsystem is enabled: on a 0 result, halve every class's
    adaptive bounds (emitting [Target_adjust] events), {!reap} (light
    first, full from the second retry on) and try again, up to 8 times
    — stopping early once a full reap reclaims nothing while the VM
    system is empty.  A success counts toward recovery (the policy
    above).  Returns 0 only when the retries are exhausted or provably
    hopeless. *)

(** {1 Host-side oracles} *)

val at_defaults_oracle : Ctx.t -> bool
(** Every adaptive bound is back at its {!Params} default. *)
