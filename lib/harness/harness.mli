(** The experiment table behind both benchmark executables.  Reproduction
    infrastructure with no paper counterpart: every artifact the paper
    reports (Figures 7-9, the DLM miss rates, the Analysis-section
    profile) and every extension experiment is defined exactly once
    here, as a cmdliner command.

    [bin/kma_bench] exposes {!commands} as its subcommands.
    [bench/main]'s sections are lists of the same command lines at
    bench scale, parsed against the same {!commands}, so a bench section
    prints what its [kma_bench] lines print and cannot drift from them.

    A command's term evaluates to a closure and runs nothing, so a
    caller can parse every command line it will run before running
    any. *)

exception Check_failed of string
(** Raised by a run whose checker found a fault: a heapcheck violation,
    a failed drain oracle ({!Workload.Rig.Conservation}), or a fuzz
    failure.  Both executables exit 3 on it. *)

exception Usage_error of string
(** Raised by a run whose flags ask for more than the simulated machine
    holds: a measured loop could not allocate a block
    ({!Workload.Rig.Alloc_failed}).  kma_bench exits 124 on it, as for
    a flag value rejected at parse time.  No bench/main row asks for
    that much. *)

type check = Lockcheck | Heapcheck | Flightrec

val check_name : check -> string
(** The long flag that arms the checker, without its dashes. *)

type ledger = {
  jobs : int;  (** the job count the run used *)
  scenarios : (string * float) list;  (** host seconds per scenario replay *)
  service : (string * Service.outcome) list;
      (** natively timed arms, each labelled [<shape>/<mode>] *)
}
(** What a run hands back for [BENCH_host.json]. *)

type t = {
  name : string;
  fans_out : bool;  (** takes [--jobs] *)
  shaped : bool;
      (** takes [--geometry]: every command whose simulated machines
          take the cache shape it sets *)
  checks : check list;  (** the checker flags it accepts *)
  info : Cmdliner.Cmd.info;
  term : (unit -> ledger) Cmdliner.Term.t;
}
(** One experiment.  Its closure installs [--geometry] (or the default
    geometry) as {!Sim.Geometry.ambient}, arms the
    checkers given on its command line, and, per DESIGN.md §9's checker
    serialization, clamps the job count to 1 when the flight recorder or
    lockcheck is armed (both keep host-global state; heapcheck shards). *)

val commands : t list
(** kma_bench's subcommands, one per experiment: every bench section
    runs some of them. *)

val kma_bench : ((unit -> ledger) -> 'a) -> 'a Cmdliner.Cmd.t
(** [kma_bench f] is kma_bench's command group: {!commands} as its
    subcommands, each closure mapped through [f] inside cmdliner's
    evaluation.  bench/main parses its lines against [kma_bench Fun.id]. *)

val main : unit -> unit
(** kma_bench's main: evaluates the process's command line against
    {!kma_bench}, runs the closure and exits 0, 3 on {!Check_failed},
    124 on {!Usage_error} or a bad flag value, 125 on an escaped
    exception.  [bin/kma_bench] is this one call. *)

(** {1 Shared by the two executables} *)

val jobs_flag : int Cmdliner.Term.t
val geometry_flag : Sim.Geometry.t option Cmdliner.Term.t

val now_s : unit -> float
(** Monotonic host seconds. *)

(** {1 Test oracles} *)

val with_heapcheck_oracle : Heapcheck.mode option -> (unit -> 'a) -> 'a
(** The wrapper every [--heapcheck] run goes through: arm the heap
    checker around a run and print its report.  No command can plant a
    violation, so this is how a test checks that one fails the run
    (exit 3).
    @raise Check_failed if any violation was recorded. *)
