(** Experiment E14 — NUMA scaling past the paper's 25 CPUs.

    The paper measures up to 25 CPUs on a flat Symmetry; with the
    width-independent sharer sets and the two-level {!Sim.Geometry}
    NUMA cost model the same rig runs 128-512 CPUs across 2-8 nodes.
    This experiment drives the global layer hard — each CPU repeatedly
    allocates a burst deeper than its per-CPU cache can absorb, touches
    each block, and frees it, so every burst makes several
    global-layer round trips (the Figure 7 cell,
    {!Workload.Bestcase.run}, at [~depth] with one word touched) — and
    races the stock allocator
    ([newkma], one gblfree pool per size class) against the per-node
    variant ([numakma], one pool per (node, size)).

    What the table shows: on the flat layer the per-size gbl lock and
    its data line ping-pong across the whole machine, so past ~128
    CPUs the remote-transfer share climbs and cycles per pair cliff;
    the per-node layer keeps that traffic inside a node and recovers
    near-flat scaling.  [nodes = 1] rows are the no-NUMA baseline
    (where [numakma] degenerates to [newkma] exactly). *)

type row = {
  which : Baseline.Allocator.which;
  ncpus : int;
  nodes : int;  (** NUMA nodes of the machine (1 = flat baseline) *)
  cycles_per_pair : float;
      (** elapsed virtual cycles over per-CPU alloc/touch/free pairs *)
  remote_pct : float;
      (** share of accesses that paid any cross-node surcharge *)
  c2c_pct : float;  (** remote-dirty (cache-to-cache) share *)
  pairs_per_sec : float;
}

val default_whichs : Baseline.Allocator.which list
(** [[Newkma; Numakma]] — the flat and per-node global layers. *)

val default_cpus : int list
(** [[32; 64; 128; 256]]; pass [~cpus:[512]] explicitly for the top
    end (one such machine costs real host memory). *)

val default_nodes : int list
(** [[1; 4]] — flat baseline plus a 4-node machine. *)

val run :
  ?jobs:int ->
  ?whichs:Baseline.Allocator.which list ->
  ?cpus:int list ->
  ?nodes:int list ->
  ?iters:int ->
  ?depth:int ->
  ?bytes:int ->
  unit ->
  row list
(** [run ()] sweeps [whichs x cpus x nodes] (node counts exceeding the
    CPU count are skipped), one fresh machine per cell, warmup dropped
    from clocks and cache stats.  [depth] is the burst size — keep it
    above twice the 256 B class target (20 blocks) or the global layer
    goes quiet and the sweep measures nothing. *)

val print : ?depth:int -> row list -> unit
(** [print rows] renders the E14 table ([depth] only labels the
    heading; pass the value the rows were run with). *)
