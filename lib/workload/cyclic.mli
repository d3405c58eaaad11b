(** The paper's cyclic commercial workload: data entry and queries by
    day (huge numbers of small blocks tracking database locking),
    backups and reorganisation by night (massive amounts of memory in
    large blocks).

    The design-goal test this drives: after the day phase frees its
    small blocks, the allocator's online coalescing must hand the
    memory back so the night phase's large allocations succeed — with
    no offline pass and no reboot. *)

type result = {
  day_allocs : int;
  night_allocs : int;  (** successful large allocations at night *)
  night_failures : int;
  day_peak_pages : int;  (** physical pages held at the end of the day *)
  night_pages : int;  (** physical pages held at night's peak *)
  cycles : int;
}

val run_kmem :
  ?config:Sim.Config.t ->
  ?days:int ->
  ?day_ops:int ->
  ?night_blocks:int ->
  unit ->
  result
(** The instrumented run on the new allocator, booted through
    {!Rig.fresh_probed} on one CPU (a given [config] has its [ncpus]
    overridden), with page accounting. *)
