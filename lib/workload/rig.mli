(** Shared benchmark rig: the simulated-machine configuration standing
    in for the paper's Symmetry 2000 (50 MHz 80486s, small per-CPU
    caches, a slow shared bus, a patch of uncacheable register space),
    and fresh machine/allocator pairs for experiments. *)

val memory_words : int
(** The simulated memory {!paper_config} boots by default: 2 MiW
    (8 MiB). *)

val paper_config : ?memory_words:int -> ncpus:int -> unit -> Sim.Config.t
(** The {!Sim.Geometry.ambient} cache geometry (by default the paper-era
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
(** {!fresh} plus the allocator's observation probe (retry counters and
    drain oracle for the lock-free arms). *)

val pairs_per_sec : Sim.Config.t -> pairs:int -> cycles:int -> float
