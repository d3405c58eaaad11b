(** Experiment E8 — memory pressure: throughput and pages held vs VM
    grant-denial rate, cookie/newkma (with the {!Kma.Pressure}
    subsystem enabled) against the mk baseline.

    The paper's Future Directions section proposes adapting [target]
    dynamically under memory pressure; E8 measures that implemented
    proposal: graceful degradation (bounded throughput loss, zero
    permanent failures, pages actually returned to the VM system by
    reap) versus mk's permanent page hoarding.  Deterministic: the
    denial stream comes from the VM system's seeded fault PRNG. *)

type row = {
  rate : float;  (** injected grant-denial probability *)
  pairs_per_sec : float;
  failures : int;  (** allocations that failed permanently *)
  pages_held : int;  (** physical pages still held at end of run *)
  reclaims : int;  (** total pages returned to the VM system *)
  reaps : int;  (** pressure reap passes *)
  reap_pages : int;  (** pages returned by reap passes specifically *)
  retries : int;  (** allocations rescued by reap-and-retry *)
  shrinks : int;  (** multiplicative target decreases *)
  grows : int;  (** additive target recoveries *)
}

type series = { name : string; rows : row list }

type result = {
  ncpus : int;
  rounds : int;
  batch : int;
  rates : float list;
  series : series list;  (** cookie, newkma, mk *)
}

val default_rates : float list
(** 0 %, 5 %, 10 %, 20 %, 35 %. *)

val run :
  ?jobs:int ->
  ?ncpus:int ->
  ?rounds:int ->
  ?batch:int ->
  ?rates:float list ->
  ?seed:int ->
  unit ->
  result
(** [run ()] measures every (allocator, rate) cell on a fresh machine
    (4 CPUs, 30 rounds of 120 alloc/free pairs per CPU by default).
    [jobs] (default 1) fans the independent cells out with
    [Parallel.map]; each cell runs under [Heapcheck.shard] and its
    harvest is absorbed in input order, so both the rows and the
    checker report are bit-identical at any job count. *)

val print : result -> unit

val graceful : result -> bool
(** [graceful r] checks the E8 acceptance shape at a 20 % denial rate
    ([r]'s rates must include 0 and 0.2): cookie and newkma keep
    >= 50 % of their fault-free throughput with zero failures and
    reap-returned pages, while mk fails allocations or holds strictly
    more pages than cookie. *)
