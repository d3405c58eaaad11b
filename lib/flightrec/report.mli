(** Render a recorded flight into a human-readable text report.

    The sections mirror the quantities the paper's Measurements section
    reasons about — lock contention (the serialisation behind Figures 7
    and 8), per-layer miss rates (the 1/target, 1/gbltarget bounds),
    page lifetimes (coalesce-to-page effectiveness, Figure 9's
    worst case) — plus, when pressure events are present, the reap and
    adaptive-target activity of the Future Directions subsystem.

    The report is computed host-side from a {!Recorder.t} snapshot:

    - recording coverage (events retained / emitted, per-CPU ring drops);
    - per-lock contention: acquires, contended acquires, spin counts and
      hold times, from paired acquire/release events;
    - per-layer miss timeline: the simulated-time range split into
      buckets, counting allocations, per-CPU misses, global-layer
      misses, page grabs and VM denials in each;
    - page-lifetime statistics from paired grab/return events;
    - VM-system grant/reclaim/denial counts;
    - vmblk carve/coalesce and large-allocation totals.

    Rendering is deterministic for a deterministic simulation, so the
    output is suitable for golden tests. *)

val pp : ?buckets:int -> Format.formatter -> Recorder.t -> unit
(** [pp ppf r] renders the report; [buckets] (default 10) controls the
    timeline resolution. *)

val to_string : ?buckets:int -> Recorder.t -> string

(** {1 Analysis hooks}

    The same per-lock accumulation the report renders, exposed as
    values so downstream analyzers (the scenario pathology detector)
    reason over it instead of re-parsing report text. *)

type lock_stat = private {
  mutable acquires : int;
  mutable contended : int;  (** acquires that had to spin *)
  mutable spins : int;
  mutable spins_max : int;
  mutable holds : int;  (** paired acquire/release samples *)
  mutable hold_total : int;
  mutable hold_max : int;
}

val lock_stats : Recorder.t -> (int * lock_stat) list
(** [lock_stats r] is the contention accumulation per lock word
    address, ascending by address (deterministic for a deterministic
    run); resolve names with {!Recorder.lock_name}. *)
