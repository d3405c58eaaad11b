(** Scenario library: named, seeded, production-shaped workloads as
    multi-CPU traces, plus {!Pathology} to replay them under the flight
    recorder and diagnose what went wrong.

    The paper evaluates its allocator with synthetic best/worst-case
    loops and one real trace (its Figure 7 measurements); this library
    fills the space in between with reproducible traffic shapes a
    kernel allocator actually meets — bursty diurnal traffic, RPC
    request/response churn, producer/consumer remote-free storms, a
    fragmentation adversary, long-tail object lifetimes, and a recorded
    run of a DLM-shaped workload.  Every scenario is a pure function
    from a seed to a {!Workload.Trace.t}, so results are deterministic
    and scale with the trace transforms ([scale_rate] / [fan_out] /
    [skew_frees]).

    Drivers: [kma_bench scenario] replays one scenario (optionally
    scaled) and prints the {!Pathology} report; [bench/main] replays
    the whole library into [BENCH_host.json]. *)

module Pathology = Pathology

type t = {
  name : string;  (** unique key, e.g. ["producer_consumer"] *)
  summary : string;  (** one line for listings *)
  target : string option;
      (** the {!Pathology} catalogue entry this scenario is built to
          trigger, if any ([None] = expected to stay clean) *)
  ncpus : int;  (** CPUs the generated trace uses *)
  default_seed : int;
  generate : seed:int -> Workload.Trace.t;
      (** deterministic: same seed, same trace *)
}

val all : t list
(** The library, in presentation order; names are unique. *)

val names : unit -> string list
