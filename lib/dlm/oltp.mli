(** OLTP-like transaction driver over the {!Lockmgr}.

    Each simulated CPU plays a database engine thread: a transaction
    opens a handful of locks on a shared resource space (read-heavy mode
    mix), allocates transaction-tracking records from the allocator,
    touches them, then releases everything.  The allocation mix — many
    small, short-lived blocks, with resource blocks frequently freed on
    a different CPU than created them — matches the paper's
    distributed-lock-manager benchmark, whose published result is the
    per-layer allocator miss rates (experiment E6). *)

type result = {
  ncpus : int;
  transactions : int;
  grants : int;
  rejects : int;  (** try_lock conflicts (immediately retried elsewhere) *)
  cycles : int;
}


val run :
  kmem:Kma.Kmem.t ->
  ncpus:int ->
  transactions_per_cpu:int ->
  ?resources:int ->
  ?seed:int ->
  unit ->
  result
(** [run ~kmem ~ncpus ~transactions_per_cpu ()] drives the workload on
    the new allocator (the configuration the paper measured) and leaves
    the allocator's per-layer counters in [Kma.Kmem.stats kmem] for the
    caller to report.  The machine inside [kmem] must have at least
    [ncpus] CPUs.

    @raise Kma.Kmem.Kmem_exhausted if the machine is too small for the
    table plus working set. *)
