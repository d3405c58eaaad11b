(** The experiment table behind both benchmark executables.  Reproduction
    infrastructure with no paper counterpart: every artifact the paper
    reports (Figures 7-9, the DLM miss rates, the Analysis-section
    profile) and every extension experiment is defined exactly once
    here, as a cmdliner command.

    [bin/kma_bench] exposes {!commands} as its subcommands.
    [bench/main] runs rows of the same command lines at bench scale
    over the whole {!table}, so a bench section and the subcommand it
    stands for cannot drift apart.

    A command's term evaluates to a closure and runs nothing, so a
    caller can parse every command line it will run before running
    any. *)

exception Check_failed of string
(** Raised by a run whose checker found a fault: a heapcheck violation,
    a lock-free conservation failure, or a fuzz failure.  Both
    executables exit 3 on it. *)

type check = Lockcheck | Heapcheck | Flightrec

val check_name : check -> string
(** The long flag that arms the checker, without its dashes. *)

type ledger = {
  jobs : int;  (** the job count the run used *)
  scenarios : (string * float) list;  (** host seconds per scenario replay *)
  service : (string * Service.outcome) list;  (** natively timed arms *)
}
(** What a run hands back for [BENCH_host.json]. *)

type t = {
  name : string;
  fans_out : bool;  (** takes [--jobs] *)
  checks : check list;  (** the checker flags it accepts *)
  info : Cmdliner.Cmd.info;
  term : (unit -> ledger) Cmdliner.Term.t;
}
(** One experiment.  Its closure applies [--geometry], arms the
    checkers given on its command line, and, per DESIGN.md §9's checker
    serialization, clamps the job count to 1 when the flight recorder or
    lockcheck is armed (both keep host-global state; heapcheck shards). *)

val commands : t list
(** kma_bench's subcommands, one per experiment. *)

val table : t list
(** {!commands} plus the bench-only experiments: the two ablations, the
    roads not taken, the native pool's Bechamel and domain runs, and
    the scenario, service and fuzz matrices. *)

val cmd : ((unit -> ledger) -> 'a) -> t -> 'a Cmdliner.Cmd.t
(** [cmd f e] is [e] as a command whose closure is mapped through [f]
    inside cmdliner's evaluation. *)

(** {1 Shared by the two executables} *)

val jobs_flag : int Cmdliner.Term.t
val geometry_flag : Sim.Geometry.t option Cmdliner.Term.t
val alloc_conv : Baseline.Allocator.which Cmdliner.Arg.conv

val init_geometry : string -> unit
(** [init_geometry prog] installs [KMA_GEOMETRY]; a bad spec exits 2.
    Call it before parsing, so [--geometry] overrides it. *)

val with_heapcheck : Heapcheck.mode option -> (unit -> 'a) -> 'a
(** Arm the heap checker around a run and print its report.
    @raise Check_failed if any violation was recorded. *)

val now_s : unit -> float
(** Monotonic host seconds. *)
