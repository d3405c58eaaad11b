(** Pathology analysis of a trace replay: replay under the flight
    recorder, sample fragmentation at quiescent points, and mine the
    evidence for the failure shapes the paper's design exists to
    prevent.

    The paper's Measurements section argues from aggregate figures
    (throughput, miss rates); production allocator work also needs to
    answer {e why} a run was slow.  This module replays a scenario's
    trace on the new allocator with the flight recorder installed and
    emits a structured report: latency-tail percentiles per operation,
    a fragmentation-over-time curve from heapcheck walks, and a list of
    detected pathologies — each finding citing the flight-recorder
    event evidence that triggered it.

    The catalogue (see DESIGN.md "Pathology catalogue"):
    - [latency-tail]: alloc p99 far above p50, with the slow-path
      events (global-layer transfers, page grabs) that explain it;
    - [fragmentation]: pages held from the VM system out of proportion
      to the live bytes, from the heapcheck fragmentation samples plus
      page grab/return event totals;
    - [drain-refill-oscillation]: a size class repeatedly draining
      lists to the page layer only to refill from it (the global
      layer's overflow hysteresis thrashing);
    - [lock-convoy]: a spinlock (the gbl per-size locks, in practice)
      with a high contended-acquire fraction, from paired
      acquire/release events.

    Analysis is host-side and deterministic: the same trace and
    configuration produce a byte-identical report. *)

type percentiles = { count : int; p50 : int; p99 : int; pmax : int }
(** Latency percentiles in simulated cycles per operation. *)

type frag_point = {
  at_ops : int;  (** trace events consumed when the sample was taken *)
  granted_pages : int;
  live_bytes : int;  (** the replay's allocated-and-not-freed bytes *)
  held_over_live : float;
      (** granted bytes / live bytes ([nan] when nothing is live) *)
}

type finding = {
  pathology : string;  (** catalogue name, e.g. ["lock-convoy"] *)
  detail : string;  (** one-line diagnosis with the numbers *)
  evidence : string list;
      (** flight-recorder evidence: event totals and rendered example
          events (via {!Flightrec.Event.pp}) *)
}

type report = {
  scenario : string;
  ncpus : int;
  events : int;  (** trace length *)
  result : Workload.Trace.result;
  ops_per_sec : float;
  alloc_lat : percentiles;
  free_lat : percentiles;
  frag_curve : frag_point list;
  findings : finding list;  (** empty = no pathology detected *)
  probe : string list;
      (** allocator-arm observations with no flightrec counterpart:
          the lock-free arms' retry counters and drain-oracle verdict
          (empty for the arms that have neither) *)
}

val analyze :
  ?windows:int ->
  ?which:Baseline.Allocator.which ->
  name:string ->
  Workload.Trace.t ->
  report
(** [analyze ~name t] boots allocator [which] (default [Newkma], the
    new allocator) through {!Workload.Rig.fresh_probed} on a fresh
    machine with [Workload.Trace.ncpus t] CPUs, replays [t] in
    [windows] (default 16) windows with the flight recorder installed,
    samples fragmentation between windows, and returns the report.
    Any previously installed flight recorder is restored on return.

    For the kmem arms (cookie, newkma, numakma) each sample walks the
    probe's [Kma.Kmem.t] for its granted pages and runs a
    [Heapcheck.checkpoint], so a driver's [--heapcheck] composes.  The
    other arms have no kmem: their samples carry no page counts (live
    bytes still tracked, the [fragmentation] finding cannot fire).  The
    lock-free arms contribute [probe] lines: their retry counters and,
    when the trace ends with nothing live, the drain-oracle verdict. *)

val to_string : report -> string
(** Deterministic text rendering (suitable for golden tests). *)
