(** A mixed multi-CPU workload: random sizes (weighted toward small
    blocks, as kernel traffic is), random lifetimes, per-CPU random
    streams.  Sits between the best-case and worst-case benchmarks, as
    the paper says real applications do. *)

type result = {
  ncpus : int;
  ops : int;  (** total allocations plus frees *)
  cycles : int;
  ops_per_sec : float;
  failures : int;  (** allocation failures (memory pressure) *)
}

val run :
  which:Baseline.Allocator.which ->
  ncpus:int ->
  ops_per_cpu:int ->
  ?config:Sim.Config.t ->
  ?seed:int ->
  unit ->
  result
(** [run ~which ~ncpus ~ops_per_cpu ()] drives each CPU through
    [ops_per_cpu] operations; at most 64 blocks are live per CPU
    (oldest freed first beyond that), and everything is freed at the
    end.  Request sizes follow {!Trace.size_mix}. *)
