(** Flight-recorder emission helper shared by the spinlocks, the VM
    system and the allocator layers.

    Not part of the paper's design: this is the reproduction's
    observability seam, and it must not perturb what it observes — the
    cycle counts of the paper's Measurements section (experiments
    E1–E8) are bit-identical with tracing on or off.

    Wraps {!Flightrec.Recorder.emit} with the current simulated CPU and
    clock, read host-side through {!Machine.running} (no operation, so
    no yield point), and an instrumentation site is

    {[ if Trace.on () then Trace.emit (Flightrec.Event.Alloc ...) ]}

    so the disabled path is the single branch of [Trace.on] and
    allocates nothing: the event is not even built. *)

val on : unit -> bool
(** True iff a flight recorder is installed. *)

val emit : Flightrec.Event.kind -> unit
(** Record one event stamped with the current CPU and simulated time
    (dropped outside a running program).  Always guard with {!on}. *)
