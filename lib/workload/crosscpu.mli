(** Producer/consumer workload: one set of CPUs allocates blocks and
    pushes them through a shared ring in simulated memory; the others
    pop and free them.

    This is the pattern the paper's global layer exists for ("one CPU
    allocates buffers of a given size, which are then passed to other
    CPUs that free them") — freed buffers flow back to the allocating
    CPU through the global layer without coalescing overhead.  For the
    lock-free arms it is the remote-free pressure test: every free
    lands on a CPU that never allocated the block. *)

type result = {
  ncpus : int;
  transfers : int;  (** blocks produced, consumed and freed *)
  cycles : int;
  transfers_per_sec : float;
  stats : Lockfree.Stats.t option;
      (** retry/helping counters when [which] is a lock-free arm — the
          remote-free flow is what makes them non-trivial *)
}

val max_pairs : int
(** 20: the most pairs whose rings fit the harness scratch region. *)

val run :
  which:Baseline.Allocator.which ->
  pairs:int ->
  blocks_per_pair:int ->
  ?bytes:int ->
  ?config:Sim.Config.t ->
  unit ->
  result
(** [run ~which ~pairs ~blocks_per_pair ()] uses [2 * pairs] CPUs: even
    CPUs produce, odd CPUs consume via a per-pair ring.
    @raise Invalid_argument unless [1 <= pairs <= max_pairs]. *)
