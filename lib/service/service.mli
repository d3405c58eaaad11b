(** A production-shaped service harness over {!Pool}: the paper's
    "serving millions of requests" claim replayed on real OCaml-5
    hardware.  [domains] worker domains each serve [requests] requests;
    a request runs one of the seven [lib/scenario] allocation graphs
    (steady, rpc, bursty, long_tail, producer_consumer, frag_adversary,
    recorded_dlm) against a shared pool — producer_consumer and the rpc
    family hand objects to the next domain's mailbox so frees land on a
    different domain than their allocs, the cross-CPU traffic the
    paper's global layer exists to absorb.

    Arrival is closed-loop (back-to-back) or open-loop with a seeded
    deterministic inter-arrival draw; open-loop latency is measured
    from the scheduled arrival, so queueing delay is charged to the
    tail (no coordinated omission).  Per-domain latency goes into
    {!Hist} histograms (p50/p99/p999); depot contention, drops, and
    adaptation steps come out of {!Pstats}.  The request *count* and
    every allocation decision are deterministic from [seed]; timings
    and contention are the machine's own. *)

module Hist = Hist
(** Re-exported: the latency histograms the harness fills. *)

module Pool = Objpool.Pool
module Pstats = Objpool.Pstats

type arrival = [ `Closed | `Open_ns of int ]
(** [`Open_ns mean]: seeded uniform inter-arrival in [[0, 2*mean]]. *)

type config = {
  scenario : string;
  domains : int;  (** worker domains, >= 1 *)
  requests : int;  (** per domain *)
  seed : int;
  mode : Pool.mode;
  target : int;
  depot_batches : int;
  arrival : arrival;
  obj_bytes : int;  (** pooled object size *)
}

val default : scenario:string -> config
(** 2 domains, 100k requests each, seed 42, [`Fixed], target 16, 32
    depot batches, closed loop, 256-byte objects. *)

type domain_stat = {
  d_index : int;
  d_requests : int;
  d_p50 : float;
  d_p99 : float;
  d_p999 : float;
  d_max_ns : int;
}

type outcome = {
  o_scenario : string;
  o_mode : Pool.mode;
  o_domains : int;
  o_requests : int;  (** total requests served, all domains *)
  o_ops : int;  (** pool operations: allocs + frees *)
  o_wall_s : float;
  o_ops_per_sec : float;
  o_p50 : float;  (** request latency, ns *)
  o_p99 : float;
  o_p999 : float;
  o_mean_ns : float;
  o_max_ns : int;
  o_stats : Pstats.snapshot;
  o_contention : float;  (** contended share of depot acquisitions *)
  o_final_target : int;
  o_final_bound : int;
  o_per_domain : domain_stat list;
}

val run : config -> outcome
(** Spawn the domains, serve every request, join, and account.  On
    return [o_stats.s_allocs = o_stats.s_frees]: every object the
    harness took from the pool went back (or to the depot via the
    domains' final [flush_local]).
    @raise Invalid_argument on a bad config or unknown scenario. *)

val to_string : outcome -> string
(** Multi-line human-readable report (the [kma_bench service] body). *)
