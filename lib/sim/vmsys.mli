(** Physical-memory accountant standing in for the DYNIX VM system.

    The paper's coalesce-to-page layer returns a page's *physical* memory
    to the VM system the moment every block in the page is free, while
    retaining the virtual address range.  This module models the VM
    system's side of that contract: a bounded pool of physical pages with
    a cycle cost per grant and per reclaim.  The backing words live in
    {!Memory} regardless (we do not really unmap), so only the accounting
    and the cost are simulated — which is exactly what the benchmarks
    observe.

    Grant and reclaim must be called from inside a simulated program;
    they charge {!Machine.work}.  The VM system serialises internally, so
    callers need no extra locking (the simulated charge includes the VM
    system's own synchronisation). *)

type t

val create : total_pages:int -> grant_cost:int -> reclaim_cost:int -> t
(** @raise Invalid_argument if [total_pages <= 0] or a cost is
    negative. *)

val grant : t -> bool
(** [grant t] asks for one physical page; false when none remain or
    when fault injection denies the request.  Emits [Vm_grant] or
    [Vm_denial] when a {!Flightrec.Recorder} is installed. *)

val reclaim : t -> unit
(** [reclaim t] returns one physical page; emits [Vm_reclaim] when a
    flight recorder is installed.
    @raise Invalid_argument if more pages are reclaimed than granted. *)

(** {1 Fault injection (host-side)}

    Models a VM system under memory pressure refusing page grants.
    Denials are driven by a deterministic {!Prng} stream private to this
    instance, so simulations with fault injection remain reproducible;
    the draw is host-side and charges no simulated cycles. *)

val set_fault_rate : t -> ?seed:int -> float -> unit
(** [set_fault_rate t rate] makes each subsequent {!grant} fail with
    probability [rate] (in addition to genuine exhaustion), reseeding
    the fault PRNG.  [rate = 0.] turns injection off.
    @raise Invalid_argument if [rate] is outside [0, 1]. *)

val granted : t -> int
val available : t -> int
val peak_granted : t -> int
val grant_count : t -> int
val reclaim_count : t -> int

val denial_count : t -> int
(** Grants refused, for any reason, since the last counter reset. *)

val injected_denial_count_oracle : t -> int
(** The subset of {!denial_count} caused by fault injection (host-side
    test oracle). *)

val reset_counters : t -> unit
