(** Shared benchmark rig: the simulated-machine configuration standing
    in for the paper's Symmetry 2000 (50 MHz 80486s, small per-CPU
    caches, a slow shared bus, a patch of uncacheable register space),
    fresh machine/allocator pairs for experiments, and the two ways a
    measured loop fails: an allocation it cannot do without, and a
    drain oracle that finds a lost or duplicated block. *)

val paper_config : ?memory_words:int -> ncpus:int -> unit -> Sim.Config.t
(** [memory_words] of simulated memory (default 2 MiW, 8 MiB), the
    {!Sim.Geometry.ambient} cache geometry (by default the paper-era
    256-line (8 KiB) bounded caches), 512 uncacheable words at the top
    of memory, default bus costs, 50 MHz.  Because every experiment that
    does not build its own config comes through here, a command's
    [--geometry] spec reshapes the whole experiment. *)

val fresh :
  Baseline.Allocator.which ->
  ?config:Sim.Config.t ->
  ncpus:int ->
  unit ->
  Sim.Machine.t * Baseline.Allocator.t
(** [fresh which ~ncpus ()] is a booted allocator on a new machine.  A
    given [config] has its [ncpus] overridden. *)

val fresh_probed :
  Baseline.Allocator.which ->
  ?config:Sim.Config.t ->
  ncpus:int ->
  unit ->
  Sim.Machine.t * Baseline.Allocator.t * Baseline.Allocator.probe
(** {!fresh} plus the allocator's observation probe: retry counters and
    drain oracle for the lock-free arms, the booted [Kma.Kmem.t] for
    the cookie, newkma and numakma arms. *)

val pairs_per_sec : Sim.Config.t -> pairs:int -> cycles:int -> float
(** [pairs_per_sec cfg ~pairs ~cycles] is [pairs] operations over
    [cycles] simulated cycles at [cfg]'s clock, per second; 0 when no
    cycle elapsed. *)

(** {1 Failures of a measured loop} *)

exception Alloc_failed of {
  which : Baseline.Allocator.which;
  bytes : int;
  ncpus : int;
}
(** A measured loop could not allocate a block it needs: the arm
    cannot serve [bytes]-byte blocks to [ncpus] CPUs at once on this
    machine.  The drivers report it as a usage error. *)

val alloc :
  Baseline.Allocator.which ->
  ncpus:int ->
  Baseline.Allocator.t ->
  bytes:int ->
  int
(** [alloc which ~ncpus a ~bytes] is [a.alloc ~bytes] for a loop that
    cannot go on without the block.
    @raise Alloc_failed if the arm returns 0. *)

exception Conservation of string
(** A drained cell's probe found a lost or duplicated block; the
    message names the arm, the CPU count and the fault. *)

val check_drained :
  Baseline.Allocator.which -> ncpus:int -> Baseline.Allocator.probe -> unit
(** [check_drained which ~ncpus probe] runs the probe's drain oracle:
    call it once every block is back and the machine is quiescent.
    Arms without an oracle always pass.
    @raise Conservation if the oracle reports a fault. *)
