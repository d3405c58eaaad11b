(** The flight recorder: per-CPU bounded rings of {!Event.t}.

    Observability for the reproduction of the paper's Measurements
    section: the experiments' cycle counts are the product under test,
    so recording must cost zero simulated cycles — the same constraint
    the paper's own lock-metering instrumentation faced on real
    hardware, solved here by keeping the recorder entirely host-side.

    Exactly one recorder can be *installed* at a time; instrumentation
    sites throughout [sim] and [kma] consult the global {!on} flag —
    a single host-side branch — and emit into the installed recorder.
    Recording happens entirely host-side: an enabled recorder charges
    **zero simulated cycles**, so cycle counts of an instrumented run
    are bit-identical with the recorder on or off (see the
    [test/flightrec] zero-cost test).

    Events are stored per emitting CPU in rings of [capacity] entries;
    when a ring wraps, the oldest events are dropped and counted
    (surface them with {!drops} / in {!Report}).

    Host-side API throughout: install/uninstall and queries are for the
    benchmark driver, never for simulated code. *)

type t

val create : ?capacity:int -> ncpus:int -> unit -> t
(** [create ~ncpus ()] makes a recorder with one ring per CPU
    ([capacity] entries each, default 65536).
    @raise Invalid_argument if [ncpus < 1] or [capacity < 1]. *)

val ncpus : t -> int
val capacity : t -> int

(** {1 Installation and the hot flag} *)

val install : t -> unit
(** [install t] makes [t] the destination of all emitted events and
    raises the global {!on} flag.  Replaces any previous recorder. *)

val uninstall : unit -> unit
(** Stop recording; {!on} becomes false.  Idempotent. *)

val installed : unit -> t option

val set_enabled : t -> bool -> unit
(** Pause/resume recording without losing the installation (only
    affects [t] when it is the installed recorder). *)

val on : unit -> bool
(** The single branch every instrumentation site tests.  True iff a
    recorder is installed and enabled. *)

val emit : cpu:int -> time:int -> Event.kind -> unit
(** Record one event (no-op when {!on} is false).  [time] is the
    emitting CPU's simulated clock.  Events from a [cpu] outside the
    recorder's range are counted in {!oob} rather than stored. *)

(** {1 Lock-name registry} *)

val note_lock : addr:int -> string -> unit
(** Give the spinlock at word [addr] a human-readable name in the
    installed recorder (no-op when none is installed).  Boot-time
    host-side call; {!Report} falls back to ["lock@<addr>"]. *)

val lock_name : t -> int -> string

(** {1 Queries (host-side)} *)

val recorded : t -> int
(** Events currently retained across all rings. *)

val total : t -> int
(** Events ever emitted into [t] (retained + dropped). *)

val drops : t -> cpu:int -> int

val oob : t -> int
(** Events discarded because their CPU id was out of range. *)

val events :
  ?cpu:int ->
  ?si:int ->
  ?kind:(Event.kind -> bool) ->
  ?t_min:int ->
  ?t_max:int ->
  t ->
  Event.t list
(** [events t] is the retained events merged across CPUs in simulated
    time order (ties broken by CPU id), optionally filtered by emitting
    CPU, size class ({!Event.si_of}), kind predicate, and inclusive
    simulated-time window. *)

val clear : t -> unit
(** Drop all recorded events and zero drop counters (the lock-name
    registry survives). *)
